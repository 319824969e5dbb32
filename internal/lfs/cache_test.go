package lfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// These tests exercise the unexported file-space block cache directly;
// integration through FS.Read/Write is covered in lfs_test.go.

func TestCacheFillAlignedRead(t *testing.T) {
	c := newBlockCache(8)
	data := bytes.Repeat([]byte{0xAB}, 2*BlockSize)
	c.fill(10, 0, data)
	if c.len() != 2 {
		t.Fatalf("resident = %d, want 2", c.len())
	}
	dst := make([]byte, 2*BlockSize)
	if !c.read(10, 0, dst) {
		t.Fatal("aligned read missed")
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("cache returned wrong bytes")
	}
}

func TestCacheUnalignedFillCoversWholeBlocksOnly(t *testing.T) {
	c := newBlockCache(8)
	// [100, 100+2*BlockSize) fully covers only block 1.
	c.fill(10, 100, make([]byte, 2*BlockSize))
	if c.len() != 1 {
		t.Fatalf("resident = %d, want 1", c.len())
	}
	if !c.read(10, BlockSize, make([]byte, BlockSize)) {
		t.Fatal("fully covered block not cached")
	}
	if c.read(10, 0, make([]byte, BlockSize)) {
		t.Fatal("partially covered block was cached")
	}
}

func TestCacheReadAllOrNothing(t *testing.T) {
	c := newBlockCache(8)
	c.fill(10, 0, make([]byte, BlockSize)) // block 0 only
	if c.read(10, 0, make([]byte, 2*BlockSize)) {
		t.Fatal("read spanning an uncached block succeeded")
	}
}

func TestCacheDistinguishesFiles(t *testing.T) {
	c := newBlockCache(8)
	c.fill(1, 0, bytes.Repeat([]byte{1}, BlockSize))
	c.fill(2, 0, bytes.Repeat([]byte{2}, BlockSize))
	dst := make([]byte, BlockSize)
	if !c.read(2, 0, dst) || dst[0] != 2 {
		t.Fatal("file 2's block wrong")
	}
	if !c.read(1, 0, dst) || dst[0] != 1 {
		t.Fatal("file 1's block wrong")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newBlockCache(2)
	c.fill(1, 0, make([]byte, BlockSize))
	c.fill(1, BlockSize, make([]byte, BlockSize))
	// Touch block 0 so block 1 is the LRU victim.
	c.read(1, 0, make([]byte, BlockSize))
	c.fill(1, 2*BlockSize, make([]byte, BlockSize))
	if c.len() != 2 {
		t.Fatalf("resident = %d, want 2", c.len())
	}
	if !c.read(1, 0, make([]byte, BlockSize)) {
		t.Fatal("recently used block evicted")
	}
	if c.read(1, BlockSize, make([]byte, BlockSize)) {
		t.Fatal("LRU block survived eviction")
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	c := newBlockCache(8)
	c.fill(1, 0, make([]byte, 4*BlockSize))
	c.invalidate(1, BlockSize+1, 1) // touches block 1 only
	if c.len() != 3 {
		t.Fatalf("resident = %d, want 3", c.len())
	}
	if c.read(1, BlockSize, make([]byte, BlockSize)) {
		t.Fatal("invalidated block still cached")
	}
	if !c.read(1, 0, make([]byte, BlockSize)) {
		t.Fatal("neighbouring block wrongly invalidated")
	}
}

func TestCacheInvalidateFile(t *testing.T) {
	c := newBlockCache(8)
	c.fill(1, 0, make([]byte, 2*BlockSize))
	c.fill(2, 0, make([]byte, 2*BlockSize))
	c.invalidateFile(1)
	if c.len() != 2 {
		t.Fatalf("resident = %d, want 2", c.len())
	}
	if c.read(1, 0, make([]byte, BlockSize)) {
		t.Fatal("deleted file's block still cached")
	}
	if !c.read(2, 0, make([]byte, BlockSize)) {
		t.Fatal("other file's block lost")
	}
	c.invalidateFile(99) // unknown file: no-op
	if c.len() != 2 {
		t.Fatalf("resident after no-op = %d", c.len())
	}
}

func TestCacheRefillUpdatesInPlace(t *testing.T) {
	c := newBlockCache(8)
	c.fill(1, 0, bytes.Repeat([]byte{1}, BlockSize))
	c.fill(1, 0, bytes.Repeat([]byte{2}, BlockSize))
	if c.len() != 1 {
		t.Fatalf("resident = %d, want 1", c.len())
	}
	dst := make([]byte, BlockSize)
	c.read(1, 0, dst)
	if dst[0] != 2 {
		t.Fatal("refill did not update the block")
	}
}

func TestCacheEmptyRead(t *testing.T) {
	c := newBlockCache(8)
	c.fill(1, 0, make([]byte, BlockSize))
	if c.read(1, 0, nil) {
		t.Fatal("zero-length read reported a hit")
	}
}

// Property: the cache never returns bytes that differ from the last
// fill of that block, under random fills, reads and invalidations.
func TestCacheCoherenceProperty(t *testing.T) {
	type op struct {
		Kind byte
		Pn   uint8
		Blk  uint8
	}
	prop := func(ops []op) bool {
		c := newBlockCache(16)
		// Model: what each (pn, blk) should contain if cached.
		model := map[[2]uint8]byte{}
		seq := byte(0)
		for _, o := range ops {
			pn := Pnode(o.Pn % 4)
			blk := int64(o.Blk % 8)
			key := [2]uint8{uint8(pn), uint8(blk)}
			switch o.Kind % 3 {
			case 0: // fill
				seq++
				c.fill(pn, blk*BlockSize, bytes.Repeat([]byte{seq}, BlockSize))
				model[key] = seq
			case 1: // read
				dst := make([]byte, BlockSize)
				if c.read(pn, blk*BlockSize, dst) {
					if dst[0] != model[key] {
						return false
					}
				}
			case 2: // invalidate
				c.invalidate(pn, blk*BlockSize, BlockSize)
				delete(model, key)
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.Quick(t, 300)); err != nil {
		t.Fatal(err)
	}
}
