package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS is the durable filesystem store. Layout under the data directory:
//
//	<dir>/jobs/<id>.json              one record per job
//	<dir>/results/<hash>.json         one blob per content hash
//	<dir>/checkpoints/<hash>/<slot>   one checkpoint blob per replica slot
//	<dir>/shards/<job>/<id>.json      one record per fleet shard
//	<dir>/shardresults/<job>/<id>     one wire blob per delivered shard
//
// Every write goes through a temp file in the target directory: write,
// fsync, rename over the final name, fsync the directory — so a record
// is either the old version or the new one, never a torn mix, and a
// rename that was acknowledged survives a crash. A directory is created
// on its first write, and its parent is fsynced then too, so the new
// directory's entry is as durable as the file inside it.
type FS struct {
	records
	dir string
}

// OpenFS opens (creating if needed) a filesystem store rooted at dir.
func OpenFS(dir string) (*FS, error) {
	if err := mkdir(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f := &FS{dir: dir}
	f.records = records{f}
	return f, nil
}

func (f *FS) path(sp space) string { return filepath.Join(f.dir, sp.dir, sp.sub) }

func (f *FS) put(sp space, key string, data []byte) error {
	dir := f.path(sp)
	err := writeAtomic(dir, key+sp.ext, data)
	if errors.Is(err, fs.ErrNotExist) {
		if err = mkdir(dir); err == nil {
			err = writeAtomic(dir, key+sp.ext, data)
		}
	}
	return err
}

func (f *FS) get(sp space, key string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(f.path(sp), key+sp.ext))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

// list returns the names of the regular files that end in the space's
// extension, with the extension cut off.
func (f *FS) list(sp space) ([]string, error) {
	entries, err := os.ReadDir(f.path(sp))
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		if key, ok := strings.CutSuffix(e.Name(), sp.ext); ok && !e.IsDir() {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, err
}

func (f *FS) drop(sp space) error { return os.RemoveAll(f.path(sp)) }

// writeAtomic publishes data as dir/name via a same-directory temp
// file: fsync the contents before the rename (so the new bytes are
// durable before the name points at them) and fsync the directory after
// (so the rename itself is durable).
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// mkdir creates dir and any missing parents, fsyncing the parent of
// every directory it creates: a new directory's entry is not durable
// until its parent is synced.
func mkdir(dir string) error {
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrNotExist) {
		if err = mkdir(filepath.Dir(dir)); err == nil {
			err = os.Mkdir(dir, 0o755)
		}
	}
	if err == nil {
		syncDir(filepath.Dir(dir))
	} else if fi, serr := os.Stat(dir); serr == nil && fi.IsDir() {
		err = nil // it already exists
	}
	return err
}

// syncDir fsyncs a directory, making the entries in it durable.
// Directory fsync is advisory on some filesystems; a failure cannot
// un-publish what is already there, so it is not reported. Tests
// substitute it to count syncs.
var syncDir = func(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
