// Package mcache is the site's one memory-cache primitive: a
// cost-aware LRU with eviction protection, shared by the lfs block
// cache (ordinary file data, §5) and the fileserver interval cache
// (the RAM tier a trailing viewer reads a leader's wake from). Both
// caches used to hand-roll the same recency list; this package is the
// single implementation.
//
// Two features the stock textbook LRU lacks, both driven by the
// interval-caching tier:
//
//   - entries carry a cost (bytes for the wake store, 1 per block for
//     the block cache) and the capacity bounds total cost, not entry
//     count;
//   - a Protect callback can veto eviction of an entry. The wake a
//     cache-served stream is riding must not be evicted underneath it,
//     however cold it looks to recency order — protection, not
//     recency, is what makes a zero-disk-budget admission safe.
//
// Eviction scans from the cold end, skipping protected entries (they
// are rotated to the hot end so the scan stays amortised O(1)); when
// everything resident is protected the cache tolerates transient
// overflow rather than evicting a protected entry.
package mcache

// entry is one cache entry on the intrusive recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// LRU is a cost-aware least-recently-used cache. The zero value is not
// usable; call New.
type LRU[K comparable, V any] struct {
	capacity int64
	used     int64
	items    map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used

	protect func(K) bool
	onEvict func(K, V)
}

// New builds an LRU bounded by the given total cost. A non-positive
// capacity yields a cache that holds nothing (every Put evicts
// immediately), which keeps "cache disabled" a configuration, not a
// special case in callers.
func New[K comparable, V any](capacity int64) *LRU[K, V] {
	return &LRU[K, V]{
		capacity: capacity,
		items:    make(map[K]*entry[K, V]),
	}
}

// SetProtect installs the eviction veto: entries for which fn reports
// true are never evicted (they still count against Used).
func (c *LRU[K, V]) SetProtect(fn func(K) bool) { c.protect = fn }

// SetOnEvict installs a callback fired for every entry the cache drops
// — evictions and explicit Deletes both.
func (c *LRU[K, V]) SetOnEvict(fn func(K, V)) { c.onEvict = fn }

// Len reports resident entries.
func (c *LRU[K, V]) Len() int { return len(c.items) }

// Used reports the total cost of resident entries.
func (c *LRU[K, V]) Used() int64 { return c.used }

// Capacity reports the cost bound.
func (c *LRU[K, V]) Capacity() int64 { return c.capacity }

// unlink removes e from the recency list.
func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the value for k and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Peek returns the value for k without touching recency order — the
// residency probe admission checks use, which must not promote what
// they merely inspect.
func (c *LRU[K, V]) Peek(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Contains reports residency without touching recency order.
func (c *LRU[K, V]) Contains(k K) bool {
	_, ok := c.items[k]
	return ok
}

// Put inserts or replaces the entry for k at the given cost and makes
// it most recently used, evicting cold unprotected entries as needed.
func (c *LRU[K, V]) Put(k K, v V, cost int64) {
	if e, ok := c.items[k]; ok {
		c.used += cost - e.cost
		e.val, e.cost = v, cost
		c.unlink(e)
		c.pushFront(e)
		c.evictOver()
		return
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.items[k] = e
	c.used += cost
	c.pushFront(e)
	c.evictOver()
}

// Delete drops the entry for k; it reports whether one existed.
func (c *LRU[K, V]) Delete(k K) bool {
	e, ok := c.items[k]
	if !ok {
		return false
	}
	c.drop(e)
	return true
}

func (c *LRU[K, V]) drop(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.used -= e.cost
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

// evictOver drops cold unprotected entries until the cache fits its
// capacity. Protected entries encountered on the way are rotated to
// the hot end — recency is meaningless while they are pinned, and the
// rotation keeps repeated scans from re-walking them. If everything
// resident is protected the cache stays over capacity (the caller's
// admission guard bounds how far).
func (c *LRU[K, V]) evictOver() {
	scanned := 0
	limit := len(c.items)
	for c.used > c.capacity && scanned < limit {
		e := c.tail
		if e == nil {
			return
		}
		scanned++
		if c.protect != nil && c.protect(e.key) {
			c.unlink(e)
			c.pushFront(e)
			continue
		}
		c.drop(e)
	}
}
