package nemesis

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/testutil"
)

func testLoaderConfig() LoaderConfig {
	return LoaderConfig{
		MapCost:   200 * sim.Microsecond,
		RelocCost: sim.Microsecond,
	}
}

func TestLoaderPreferredBaseDeterministic(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	im := Image{Name: "editor", Version: 3, Size: 2 << 20, Relocs: 1000}
	b1 := l.PreferredBase(im)
	b2 := l.PreferredBase(im)
	if b1 != b2 {
		t.Fatalf("preferred base not deterministic: %#x vs %#x", b1, b2)
	}
	if b1&((1<<32)-1) != 0 {
		t.Fatalf("base %#x not aligned to the hash slot", b1)
	}
}

func TestLoaderColdLoadPaysRelocation(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	im := Image{Name: "editor", Relocs: 30000}
	res, err := l.Load(im)
	if err != nil {
		t.Fatal(err)
	}
	want := 200*sim.Microsecond + 30000*sim.Microsecond
	if res.Cost != want {
		t.Fatalf("cold load cost = %v, want %v", res.Cost, want)
	}
	if res.CacheHit {
		t.Fatal("cold load reported a cache hit")
	}
	if l.Stats.RelocsPatched != 30000 {
		t.Fatalf("relocs patched = %d", l.Stats.RelocsPatched)
	}
}

func TestLoaderReloadHitsCacheAtSameBase(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	im := Image{Name: "editor", Relocs: 30000}
	first, err := l.Load(im)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unload("editor"); err != nil {
		t.Fatal(err)
	}
	second, err := l.Load(im)
	if err != nil {
		t.Fatal(err)
	}
	if second.Base != first.Base {
		t.Fatalf("reload moved: %#x -> %#x", first.Base, second.Base)
	}
	if !second.CacheHit {
		t.Fatal("reload missed the relocation cache")
	}
	if second.Cost != 200*sim.Microsecond {
		t.Fatalf("reload cost = %v, want map cost only", second.Cost)
	}
}

func TestLoaderDoubleLoadRejected(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	im := Image{Name: "editor"}
	if _, err := l.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(im); !errors.Is(err, ErrLoaded) {
		t.Fatalf("double load: err = %v, want ErrLoaded", err)
	}
}

func TestLoaderUnloadUnknownRejected(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	if err := l.Unload("ghost"); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("err = %v, want ErrNotLoaded", err)
	}
}

func TestLoaderNewVersionMovesAndRelocates(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	v1 := Image{Name: "editor", Version: 1, Relocs: 100}
	r1, err := l.Load(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unload("editor"); err != nil {
		t.Fatal(err)
	}
	v2 := Image{Name: "editor", Version: 2, Relocs: 100}
	r2, err := l.Load(v2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Base == r1.Base {
		t.Fatal("recompiled image kept its base; hash should have moved it")
	}
	if r2.CacheHit {
		t.Fatal("recompiled image must not reuse the old relocation")
	}
}

// forceCollision returns two distinct images that collide under the
// given hash width.
func forceCollision(t *testing.T, bits uint) (Image, Image) {
	t.Helper()
	seen := make(map[uint32]Image)
	mask := uint32(1)<<bits - 1
	for i := 0; i < 1<<20; i++ {
		im := Image{Name: fmt.Sprintf("img%d", i), Relocs: 10}
		h := im.CodeHash() & mask
		if other, ok := seen[h]; ok {
			return other, im
		}
		seen[h] = im
	}
	t.Fatal("no collision found")
	return Image{}, Image{}
}

func TestLoaderCollisionProbesNextSlot(t *testing.T) {
	cfg := testLoaderConfig()
	cfg.HashBits = 8
	l := NewLoader(cfg)
	a, b := forceCollision(t, 8)
	ra, err := l.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := l.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Collision {
		t.Fatal("second image did not report the collision")
	}
	if rb.Base == ra.Base {
		t.Fatal("collided images share a base")
	}
	if rb.Base != ra.Base+l.slotSize() {
		t.Fatalf("probe landed at %#x, want next slot %#x", rb.Base, ra.Base+l.slotSize())
	}
	if l.Stats.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", l.Stats.Collisions)
	}
}

func TestLoaderCollisionEvaporatesAfterUnload(t *testing.T) {
	cfg := testLoaderConfig()
	cfg.HashBits = 8
	l := NewLoader(cfg)
	a, b := forceCollision(t, 8)
	ra, _ := l.Load(a)
	rb, _ := l.Load(b)
	if err := l.Unload(a.Name); err != nil {
		t.Fatal(err)
	}
	if err := l.Unload(b.Name); err != nil {
		t.Fatal(err)
	}
	// With a free preferred slot, b loads there — and pays relocation
	// again, because its cached result is for the probed address.
	rb2, err := l.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if rb2.Base != ra.Base {
		t.Fatalf("b should take its preferred slot %#x, got %#x", ra.Base, rb2.Base)
	}
	if rb2.CacheHit {
		t.Fatal("relocation for a new base cannot be cached")
	}
	_ = rb
}

func TestLoaderCachesPerBase(t *testing.T) {
	cfg := testLoaderConfig()
	cfg.HashBits = 8
	l := NewLoader(cfg)
	a, b := forceCollision(t, 8)
	l.Load(a)
	l.Load(b) // b relocated at probed slot
	l.Unload(a.Name)
	l.Unload(b.Name)
	l.Load(a)
	rb, err := l.Load(b) // probed slot again: cached
	if err != nil {
		t.Fatal(err)
	}
	if !rb.CacheHit {
		t.Fatal("repeat collision did not reuse the probed-slot relocation")
	}
	if l.CachedRelocations() != 2 {
		t.Fatalf("cached relocations = %d, want 2 (a@pref and b@probe)", l.CachedRelocations())
	}
}

func TestLoaderInvalidateCache(t *testing.T) {
	l := NewLoader(testLoaderConfig())
	im := Image{Name: "editor", Relocs: 10}
	l.Load(im)
	l.Unload("editor")
	if n := l.InvalidateCache("editor"); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	res, err := l.Load(im)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("load after invalidation hit the cache")
	}
}

func TestLoaderFullAddressSpace(t *testing.T) {
	cfg := testLoaderConfig()
	cfg.HashBits = 2 // 4 slots
	l := NewLoader(cfg)
	loadedNames := 0
	for i := 0; loadedNames < 4 && i < 1000; i++ {
		im := Image{Name: fmt.Sprintf("img%d", i)}
		if _, err := l.Load(im); err == nil {
			loadedNames++
		}
	}
	if loadedNames != 4 {
		t.Fatalf("loaded %d images into 4 slots", loadedNames)
	}
	if _, err := l.Load(Image{Name: "one-too-many"}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

// Property: however images are loaded and unloaded, no two concurrently
// loaded images share a base, and every base is slot-aligned.
func TestLoaderBasesDisjointProperty(t *testing.T) {
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testLoaderConfig()
		cfg.HashBits = 6 // small space to provoke collisions
		l := NewLoader(cfg)
		live := map[string]bool{}
		for op := 0; op < int(nOps); op++ {
			name := fmt.Sprintf("img%d", rng.Intn(20))
			if live[name] {
				if err := l.Unload(name); err != nil {
					return false
				}
				delete(live, name)
				continue
			}
			_, err := l.Load(Image{Name: name, Relocs: rng.Intn(100)})
			if err != nil {
				if errors.Is(err, ErrFull) || errors.Is(err, ErrLoaded) {
					continue
				}
				return false
			}
			live[name] = true
			// Invariants after every load.
			seen := map[uint64]bool{}
			for n := range live {
				b, ok := l.BaseOf(n)
				if !ok || seen[b] || b%l.slotSize() != 0 {
					return false
				}
				seen[b] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: a reload at the same base is always a cache hit and never
// costs more than the cold load.
func TestLoaderReloadNeverDearer(t *testing.T) {
	prop := func(relocs uint16) bool {
		l := NewLoader(testLoaderConfig())
		im := Image{Name: "x", Relocs: int(relocs)}
		cold, err := l.Load(im)
		if err != nil {
			return false
		}
		l.Unload("x")
		warm, err := l.Load(im)
		if err != nil {
			return false
		}
		return warm.Cost <= cold.Cost && warm.Base == cold.Base && warm.CacheHit
	}
	if err := quick.Check(prop, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}
