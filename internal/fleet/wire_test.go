package fleet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func sampleResult() *ShardResult {
	return &ShardResult{
		Variant: 1,
		Lo:      4,
		Hi:      6,
		Rows: [][][]float64{
			{{0.5, 0.25, 0.125}, {1e-300, 0, 3.14}},
			{{-1.5, 2.5, 4.5}, {0.1, 0.2, 0.3}},
		},
		Steps: []uint64{123456789, 42},
		Times: []float64{9.75, 10.0},
	}
}

// The wire codec round-trips payloads bit-exactly.
func TestWireRoundTrip(t *testing.T) {
	in := sampleResult()
	data, err := encodeShardResult(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeShardResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}
}

// Malformed payloads decode to errors, never to silently-wrong data.
func TestWireRejectsMalformed(t *testing.T) {
	good, err := encodeShardResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-5],
		"header":    good[:12],
	}
	// Trailing garbage.
	cases["trailing"] = append(append([]byte(nil), good...), 0xFF)
	// Flipped magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	cases["magic"] = bad
	// Wrong version.
	bad = append([]byte(nil), good...)
	bad[4] ^= 0x01
	cases["version"] = bad
	// Absurd species claim (offset 20: after magic, version, variant,
	// lo, hi).
	bad = append([]byte(nil), good...)
	bad[20], bad[21] = 0xFF, 0xFF
	cases["species"] = bad
	// Inverted replica range.
	bad = append([]byte(nil), good...)
	bad[12], bad[16] = bad[16], bad[12] // swap lo and hi low bytes
	cases["range"] = bad

	for name, data := range cases {
		if _, err := decodeShardResult(data); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// The encoder refuses incoherent in-memory payloads.
func TestWireEncodeValidation(t *testing.T) {
	res := sampleResult()
	res.Steps = res.Steps[:1]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with missing steps")
	}
	res = sampleResult()
	res.Rows[1] = res.Rows[1][:1]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with ragged species rows")
	}
	res = sampleResult()
	res.Rows[1][0] = res.Rows[1][0][:2]
	if _, err := encodeShardResult(res); err == nil {
		t.Error("encoded a payload with ragged point rows")
	}
}

// Global shard ids split back into their parts and reject malformed
// tokens.
func TestGlobalShardID(t *testing.T) {
	g := GlobalShardID("job-3", "v0-0-8")
	if g != "job-3.v0-0-8" {
		t.Fatalf("global id %q", g)
	}
	jobID, shardID, err := SplitShardID(g)
	if err != nil || jobID != "job-3" || shardID != "v0-0-8" {
		t.Fatalf("split: %q %q %v", jobID, shardID, err)
	}
	for _, bad := range []string{"", "nodot", ".leading", "trailing."} {
		if _, _, err := SplitShardID(bad); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("SplitShardID(%q): %v, want malformed error", bad, err)
		}
	}
}

// wireHeader returns a bare 28-byte shard result header claiming
// replicas [0, n) of the given species × points shape.
func wireHeader(n, species, points uint32) []byte {
	h := make([]byte, wireHeaderSize)
	for i, v := range []uint32{wireMagic, wireVersion, 0, 0, n, species, points} {
		binary.LittleEndian.PutUint32(h[4*i:], v)
	}
	return h
}

// A header's claims are refused before anything is allocated to meet
// them: a bare header claiming megabytes of samples costs the decoder
// no more than the payload. The claims stay at or under 2^20 points, so
// a regression cannot exhaust the test host.
func TestWireHeaderClaimsAllocateNothing(t *testing.T) {
	claims := map[string][]byte{
		"points":                 wireHeader(1, 4, 1<<20),
		"replicas":               wireHeader(1<<20, 1, 1),
		"body one replica short": append(wireHeader(2, 1, 1<<10), make([]byte, 16+8<<10)...),
	}
	for name, data := range claims {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeShardResult(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a payload shorter than its header claims decoded", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusing the claim allocated %d bytes, want under 1 MB", name, alloc)
		}
	}
}

// FuzzDecodeShardResult: the decoder of untrusted uploads and stored
// blobs never panics, and whatever it accepts re-encodes to the exact
// input bytes (the format is canonical).
func FuzzDecodeShardResult(f *testing.F) {
	good, err := encodeShardResult(sampleResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 12, wireHeaderSize, len(good) - 5} {
		f.Add(good[:n])
	}
	f.Add(append(append([]byte(nil), good...), 0xFF))
	f.Add(wireHeader(1, 4, 1<<20))
	f.Add(wireHeader(1<<20, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeShardResult(data)
		if err != nil {
			return
		}
		again, err := encodeShardResult(res)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
	})
}
