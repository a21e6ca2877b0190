// Snapshot persistence: a restarted riskd should serve its hot releases
// warm instead of recomputing a cache that took hours of assessment work to
// fill. The format is built for crash safety rather than speed — a snapshot
// is written beside the live file and atomically renamed over it, so a
// process death mid-write can never destroy the previous good snapshot, and
// every entry carries its own checksum so a torn or bit-rotted file
// degrades entry-by-entry instead of all-or-nothing.
//
// File layout (all integers little-endian):
//
//	magic   "RSNP1\n"
//	entry*  u32 keyLen | key | u32 valLen | val | u32 crc
//
// where crc is IEEE CRC-32 over the two length prefixes, the key, and the
// value. Entries are dumped oldest-first so a load that inserts in file
// order reconstructs the LRU recency order exactly.
package riskcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

var snapMagic = []byte("RSNP1\n")

// ErrSkipEntry is returned by an encode callback to leave one entry out of
// the snapshot without failing the whole write. The server's encoder uses
// it as the belt-and-suspenders enforcement of the never-snapshot-degraded
// invariant.
var ErrSkipEntry = errors.New("riskcache: skip snapshot entry")

// ErrBadSnapshot reports a file that is not a snapshot at all (wrong or
// truncated magic). Loaders treat it as "no snapshot", not as fatal.
var ErrBadSnapshot = errors.New("riskcache: not a snapshot file")

// Entry limits: a corrupt length prefix must not make the loader read
// gigabytes before the checksum can catch it. Within them, the loader
// allocates what the file holds, not what the prefix claims (readBytes).
const (
	maxSnapKeyLen = 1 << 20  // 1 MiB
	maxSnapValLen = 64 << 20 // 64 MiB
)

type snapEntry[V any] struct {
	key string
	val V
}

// dump copies the completed entries oldest-first under the lock; encoding
// and I/O happen outside it.
func (c *Cache[V]) dump() []snapEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]snapEntry[V], 0, c.ll.Len())
	for ele := c.ll.Back(); ele != nil; ele = ele.Prev() {
		e := ele.Value.(*entry[V])
		out = append(out, snapEntry[V]{key: e.key, val: e.val})
	}
	return out
}

// WriteSnapshot streams the cache's completed entries to w in snapshot
// format. encode serializes one value; returning ErrSkipEntry omits that
// entry, any other error aborts the write. Returns the number of entries
// written.
func (c *Cache[V]) WriteSnapshot(w io.Writer, encode func(V) ([]byte, error)) (int, error) {
	if _, err := w.Write(snapMagic); err != nil {
		return 0, err
	}
	var lens [8]byte
	written := 0
	for _, e := range c.dump() {
		data, err := encode(e.val)
		if err != nil {
			if errors.Is(err, ErrSkipEntry) {
				continue
			}
			return written, fmt.Errorf("riskcache: encoding snapshot entry %s: %w", e.key, err)
		}
		binary.LittleEndian.PutUint32(lens[0:4], uint32(len(e.key)))
		binary.LittleEndian.PutUint32(lens[4:8], uint32(len(data)))
		crc := crc32.NewIEEE()
		crc.Write(lens[:])
		crc.Write([]byte(e.key))
		crc.Write(data)
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
		for _, chunk := range [][]byte{lens[:4], []byte(e.key), lens[4:8], data, sum[:]} {
			if _, err := w.Write(chunk); err != nil {
				return written, err
			}
		}
		written++
	}
	return written, nil
}

// ReadSnapshot loads entries from r into the cache. decode deserializes one
// value and reports whether to accept it — the server's decoder rejects
// anything degraded, so the never-cache-degraded invariant survives even a
// forged or stale snapshot. Existing entries are never overwritten (live
// data beats snapshot data).
//
// Corruption is contained per entry: a checksum mismatch or a rejected
// value is counted in skipped and the load continues, while a torn tail
// (truncated mid-entry) or an implausible length prefix stops the load with
// what was recovered so far. Only r's own read errors are returned as err;
// a non-snapshot stream returns ErrBadSnapshot.
func (c *Cache[V]) ReadSnapshot(r io.Reader, decode func([]byte) (V, bool, error)) (loaded, skipped int, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, ErrBadSnapshot
		}
		return 0, 0, err
	}
	if string(magic) != string(snapMagic) {
		return 0, 0, ErrBadSnapshot
	}

	var lens [8]byte
	for {
		// Key length: a clean EOF here is the normal end of the file.
		if _, err := io.ReadFull(br, lens[0:4]); err != nil {
			if errors.Is(err, io.EOF) {
				return loaded, skipped, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return loaded, skipped + 1, nil // torn tail
			}
			return loaded, skipped, err
		}
		keyLen := binary.LittleEndian.Uint32(lens[0:4])
		if keyLen > maxSnapKeyLen {
			return loaded, skipped + 1, nil // corrupt length: cannot resync
		}
		key, err := readBytes(br, keyLen)
		if err != nil {
			return loaded, skipped + 1, readErrOrNil(err)
		}
		if _, err := io.ReadFull(br, lens[4:8]); err != nil {
			return loaded, skipped + 1, readErrOrNil(err)
		}
		valLen := binary.LittleEndian.Uint32(lens[4:8])
		if valLen > maxSnapValLen {
			return loaded, skipped + 1, nil
		}
		val, err := readBytes(br, valLen)
		if err != nil {
			return loaded, skipped + 1, readErrOrNil(err)
		}
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return loaded, skipped + 1, readErrOrNil(err)
		}

		crc := crc32.NewIEEE()
		crc.Write(lens[:])
		crc.Write(key)
		crc.Write(val)
		if crc.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
			skipped++ // lengths were plausible, so the stream stays framed
			continue
		}
		v, accept, err := decode(val)
		if err != nil || !accept {
			skipped++
			continue
		}
		c.mu.Lock()
		_, exists := c.entries[string(key)]
		if !exists {
			c.add(string(key), v)
		}
		c.mu.Unlock()
		if exists {
			skipped++
		} else {
			loaded++
		}
	}
}

// readBytes reads exactly n bytes from r into a buffer that grows as they
// arrive, so a torn entry whose prefix claims 64 MiB costs the bytes the
// stream actually held. A short stream returns io.EOF, which the loader
// counts as a torn tail.
func readBytes(r io.Reader, n uint32) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readErrOrNil maps a torn read (unexpected EOF) to nil — the caller
// already counted the entry as skipped — and keeps real I/O errors.
func readErrOrNil(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// SaveFile writes a snapshot to path crash-safely: the bytes go to a
// temporary file in the same directory (so the rename stays within one
// filesystem), are synced, and only then atomically renamed over path. A
// failure at any point leaves the previous snapshot untouched. wrap, when
// non-nil, interposes on the data stream — the fault-injection harness uses
// it to tear writes mid-snapshot and prove exactly that.
func (c *Cache[V]) SaveFile(path string, encode func(V) ([]byte, error), wrap func(io.Writer) io.Writer) (int, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name()) // no-op after a successful rename
	}()

	var w io.Writer = tmp
	if wrap != nil {
		w = wrap(tmp)
	}
	bw := bufio.NewWriter(w)
	n, err := c.WriteSnapshot(bw, encode)
	if err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return n, nil
}

// LoadFile loads the snapshot at path into the cache with ReadSnapshot
// semantics. A missing file is not an error — a cold start is normal — and
// returns (0, 0, nil); a file that is not a snapshot returns ErrBadSnapshot.
func (c *Cache[V]) LoadFile(path string, decode func([]byte) (V, bool, error)) (loaded, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	defer f.Close()
	return c.ReadSnapshot(f, decode)
}
