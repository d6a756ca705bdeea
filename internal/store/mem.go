package store

import (
	"sort"
	"sync"
)

// Mem is the in-memory store: no durability, and otherwise the same
// record layer as FS, so every value round-trips through the same JSON
// encoding (value isolation, byte-stable re-reads) minus the disk.
type Mem struct {
	records
	mu     sync.Mutex
	spaces map[space]map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	m := &Mem{spaces: make(map[space]map[string][]byte)}
	m.records = records{m}
	return m
}

func (m *Mem) put(sp space, key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spaces[sp] == nil {
		m.spaces[sp] = make(map[string][]byte)
	}
	m.spaces[sp][key] = data
	return nil
}

func (m *Mem) get(sp space, key string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.spaces[sp][key]
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

func (m *Mem) list(sp space) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.spaces[sp]))
	for key := range m.spaces[sp] {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

func (m *Mem) drop(sp space) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.spaces, sp)
	return nil
}
