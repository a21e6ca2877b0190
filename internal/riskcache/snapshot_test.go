package riskcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func strEncode(v string) ([]byte, error)       { return []byte(v), nil }
func strDecode(b []byte) (string, bool, error) { return string(b), true, nil }

// fill inserts n entries k0..k(n-1) -> v0.. in insertion order (k0 oldest).
func fill(c *Cache[string], n int) {
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		c.GetOrCompute(context.Background(), key, func() (string, bool, error) {
			return fmt.Sprintf("v%d", i), true, nil
		})
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New[string](0)
	fill(src, 5)

	var buf bytes.Buffer
	n, err := src.WriteSnapshot(&buf, strEncode)
	if err != nil || n != 5 {
		t.Fatalf("WriteSnapshot: n=%d err=%v", n, err)
	}

	dst := New[string](0)
	loaded, skipped, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()), strDecode)
	if err != nil || loaded != 5 || skipped != 0 {
		t.Fatalf("ReadSnapshot: loaded=%d skipped=%d err=%v", loaded, skipped, err)
	}
	for i := 0; i < 5; i++ {
		v, ok := dst.Get(fmt.Sprintf("k%d", i))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Errorf("k%d = %q, %v", i, v, ok)
		}
	}
}

func TestSnapshotPreservesLRUOrder(t *testing.T) {
	src := New[string](0)
	fill(src, 4) // k0 oldest ... k3 newest
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf, strEncode); err != nil {
		t.Fatal(err)
	}

	// Load into a cache whose capacity will evict exactly one entry on the
	// next insert: the evictee must be k0, the oldest at snapshot time.
	dst := New[string](4)
	if loaded, _, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()), strDecode); err != nil || loaded != 4 {
		t.Fatalf("loaded=%d err=%v", loaded, err)
	}
	dst.GetOrCompute(context.Background(), "new", func() (string, bool, error) { return "x", true, nil })
	if _, ok := dst.Get("k0"); ok {
		t.Error("k0 survived eviction; snapshot did not preserve recency order")
	}
	if _, ok := dst.Get("k3"); !ok {
		t.Error("k3 (newest) was evicted; snapshot did not preserve recency order")
	}
}

func TestSnapshotSkipsEncodeSkipEntries(t *testing.T) {
	src := New[string](0)
	fill(src, 4)
	var buf bytes.Buffer
	n, err := src.WriteSnapshot(&buf, func(v string) ([]byte, error) {
		if v == "v2" {
			return nil, ErrSkipEntry
		}
		return []byte(v), nil
	})
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v, want 3 entries", n, err)
	}
	dst := New[string](0)
	loaded, _, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()), strDecode)
	if err != nil || loaded != 3 {
		t.Fatalf("loaded=%d err=%v", loaded, err)
	}
	if _, ok := dst.Get("k2"); ok {
		t.Error("skipped entry k2 reappeared after the round trip")
	}
}

func TestSnapshotDecodeRejection(t *testing.T) {
	src := New[string](0)
	fill(src, 3)
	var buf bytes.Buffer
	src.WriteSnapshot(&buf, strEncode)

	dst := New[string](0)
	loaded, skipped, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()),
		func(b []byte) (string, bool, error) {
			return string(b), string(b) != "v1", nil // reject v1
		})
	if err != nil || loaded != 2 || skipped != 1 {
		t.Fatalf("loaded=%d skipped=%d err=%v, want 2/1/nil", loaded, skipped, err)
	}
	if _, ok := dst.Get("k1"); ok {
		t.Error("rejected entry was loaded anyway")
	}
}

func TestSnapshotTornTail(t *testing.T) {
	src := New[string](0)
	fill(src, 5)
	var buf bytes.Buffer
	src.WriteSnapshot(&buf, strEncode)

	// Cut the file mid-way through the last entry: the prefix must load.
	torn := buf.Bytes()[:buf.Len()-7]
	dst := New[string](0)
	loaded, skipped, err := dst.ReadSnapshot(bytes.NewReader(torn), strDecode)
	if err != nil {
		t.Fatalf("torn tail returned error: %v", err)
	}
	if loaded != 4 || skipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want 4 loaded and the torn tail skipped", loaded, skipped)
	}
}

// TestSnapshotTornClaimAllocatesWhatArrives: a 17-byte file whose one
// entry claims a 64 MiB value (the largest plausible length) is a torn
// tail, and loading it allocates about what the file holds, not the claim.
func TestSnapshotTornClaimAllocatesWhatArrives(t *testing.T) {
	raw := append([]byte(nil), snapMagic...)
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = append(raw, 'k')
	raw = binary.LittleEndian.AppendUint32(raw, maxSnapValLen)
	raw = append(raw, "vv"...)
	if len(raw) != 17 {
		t.Fatalf("fixture is %d bytes, want 17", len(raw))
	}
	dst := New[string](0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, skipped, err := dst.ReadSnapshot(bytes.NewReader(raw), strDecode)
	runtime.ReadMemStats(&after)
	if err != nil || loaded != 0 || skipped != 1 {
		t.Fatalf("loaded=%d skipped=%d err=%v, want the torn entry skipped", loaded, skipped, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("loading a 17-byte snapshot allocated %.1f MiB, want under 1 MiB", float64(alloc)/(1<<20))
	}
}

func TestSnapshotCorruptEntrySkippedOthersLoad(t *testing.T) {
	src := New[string](0)
	fill(src, 3)
	var buf bytes.Buffer
	src.WriteSnapshot(&buf, strEncode)

	// Flip one byte inside the middle entry's value ("v1"); its checksum
	// fails, the neighbors still load.
	raw := buf.Bytes()
	idx := bytes.Index(raw, []byte("v1"))
	if idx < 0 {
		t.Fatal("fixture: value v1 not found in snapshot bytes")
	}
	raw[idx+1] ^= 0xff
	dst := New[string](0)
	loaded, skipped, err := dst.ReadSnapshot(bytes.NewReader(raw), strDecode)
	if err != nil {
		t.Fatalf("corrupt entry returned error: %v", err)
	}
	if loaded != 2 || skipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want 2/1", loaded, skipped)
	}
	if _, ok := dst.Get("k1"); ok {
		t.Error("corrupt entry k1 was loaded")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := dst.Get(k); !ok {
			t.Errorf("healthy entry %s lost to a neighbor's corruption", k)
		}
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	dst := New[string](0)
	for _, junk := range []string{"", "RS", "not a snapshot at all"} {
		_, _, err := dst.ReadSnapshot(strings.NewReader(junk), strDecode)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("junk %q: err = %v, want ErrBadSnapshot", junk, err)
		}
	}
}

func TestSnapshotDoesNotOverwriteLiveEntries(t *testing.T) {
	src := New[string](0)
	fill(src, 2)
	var buf bytes.Buffer
	src.WriteSnapshot(&buf, strEncode)

	dst := New[string](0)
	dst.GetOrCompute(context.Background(), "k0", func() (string, bool, error) {
		return "live", true, nil
	})
	loaded, _, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()), strDecode)
	if err != nil || loaded != 1 {
		t.Fatalf("loaded=%d err=%v, want only the missing entry", loaded, err)
	}
	if v, _ := dst.Get("k0"); v != "live" {
		t.Errorf("k0 = %q; snapshot clobbered a live entry", v)
	}
}

func TestSaveFileAtomicOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	good := New[string](0)
	fill(good, 3)
	if n, err := good.SaveFile(path, strEncode, nil); err != nil || n != 3 {
		t.Fatalf("SaveFile: n=%d err=%v", n, err)
	}

	// A failing writer must leave the previous snapshot byte-identical and
	// no temp litter behind.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bigger := New[string](0)
	fill(bigger, 6)
	boom := errors.New("disk full")
	_, err = bigger.SaveFile(path, strEncode, func(w io.Writer) io.Writer {
		return failAfter{w: w, n: 10, err: boom}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("SaveFile with failing writer: err=%v, want the writer's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save modified the previous snapshot")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}

	// The surviving snapshot still loads.
	dst := New[string](0)
	if loaded, _, err := dst.LoadFile(path, strDecode); err != nil || loaded != 3 {
		t.Errorf("previous snapshot unloadable after failed save: loaded=%d err=%v", loaded, err)
	}
}

type failAfter struct {
	w   io.Writer
	n   int
	err error
}

func (f failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, f.err
	}
	return f.w.Write(p)
}

func TestLoadFileMissingIsCold(t *testing.T) {
	dst := New[string](0)
	loaded, skipped, err := dst.LoadFile(filepath.Join(t.TempDir(), "nope.snap"), strDecode)
	if loaded != 0 || skipped != 0 || err != nil {
		t.Errorf("missing file: %d/%d/%v, want 0/0/nil", loaded, skipped, err)
	}
}

func TestStoreHook(t *testing.T) {
	c := New[string](0)
	fail := true
	c.SetStoreHook(func(key string) error {
		if fail {
			return errors.New("injected store failure")
		}
		return nil
	})
	v, src, err := c.GetOrCompute(context.Background(), "k", func() (string, bool, error) {
		return "v", true, nil
	})
	if err != nil || v != "v" || src != Computed {
		t.Fatalf("first call: %q %v %v", v, src, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("entry stored despite failing hook")
	}
	if st := c.Stats(); st.StoreFailed != 1 {
		t.Errorf("StoreFailed = %d, want 1", st.StoreFailed)
	}

	fail = false
	if _, src, _ := c.GetOrCompute(context.Background(), "k", func() (string, bool, error) {
		return "v", true, nil
	}); src != Computed {
		t.Fatalf("second call source %v, want Computed (first was never stored)", src)
	}
	if _, ok := c.Get("k"); !ok {
		t.Error("entry missing after hook allowed the store")
	}
}
