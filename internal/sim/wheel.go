package sim

import (
	"math/bits"
	"slices"
)

// wheel is one calendar level over [now, now + nBuckets<<shift). A
// bucket holds events of a single absolute bucket number at a time; only
// the bucket being drained (curBN) is kept sorted. A bucket whose events
// were appended in (time, seq) order — a population of periodic timers
// re-arming — skips the sort altogether.
//
// An emptied bucket goes to spare, array and all, and a bucket taking
// its first event takes one back, so the wheel retains about as many
// arrays as it has buckets in use at once, not one per slot, and an idle
// slot costs one pointer.
type wheel struct {
	shift     uint                // log2 of the bucket width in nanoseconds
	tag       int32               // added to a slot index to form Event.slot
	buckets   [nBuckets]*bucket   // nil while empty
	bitmap    [bitmapWords]uint64 // slots with live events
	live      int
	curBN     int64
	curHead   int
	curSorted bool
	spare     []*bucket
}

// bucket is one slot's events. Cancelled events leave nil holes until
// the bucket is next sorted, so live counts the rest; unsorted records
// an append that broke (time, seq) order.
type bucket struct {
	ev       []*Event
	live     int32
	unsorted bool
}

func (w *wheel) insert(e *Event, bn int64) {
	bi := int32(bn & bucketMask)
	e.slot = w.tag + bi
	b := w.buckets[bi]
	if b == nil {
		if n := len(w.spare); n > 0 {
			b = w.spare[n-1]
			w.spare = w.spare[:n-1]
		} else {
			b = new(bucket)
		}
		w.buckets[bi] = b
		w.bitmap[bi>>6] |= 1 << uint(bi&63)
	}
	if bn == w.curBN && w.curSorted {
		// Sorted insert into the bucket being drained, after the drain
		// point. Events below curHead are extracted (nil) slots.
		ev := b.ev
		lo, hi := w.curHead, len(ev)
		for lo < hi {
			mid := (lo + hi) / 2
			if less(ev[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ev = append(ev, nil)
		copy(ev[lo+1:], ev[lo:])
		ev[lo] = e
		e.idx = int32(lo)
		for i := lo + 1; i < len(ev); i++ {
			ev[i].idx = int32(i)
		}
		b.ev = ev
	} else {
		if bn < w.curBN {
			// The drain cursor overshot this event's bucket; pull it
			// back. Buckets between bn and the old cursor are empty, so
			// the cursor remains correct.
			w.curBN = bn
			w.curHead = 0
			w.curSorted = false
		}
		if n := len(b.ev); n > 0 && (b.ev[n-1] == nil || less(e, b.ev[n-1])) {
			b.unsorted = true
		}
		e.idx = int32(len(b.ev))
		b.ev = append(b.ev, e)
	}
	b.live++
	w.live++
}

// front returns the wheel's minimum event without extracting it, or nil
// when the wheel is empty.
func (w *wheel) front(now Time) *Event {
	if w.live == 0 {
		return nil
	}
	// Resynchronise the drain cursor: if the clock moved past it (the
	// wheel idled while other containers' events fired, or this is the
	// first drain), its masked index may alias a much later absolute
	// bucket. Live events all have bn >= bn(now), so clamping is safe.
	if nowBN := int64(now) >> w.shift; w.curBN < nowBN {
		w.curBN = nowBN
		w.curHead = 0
		w.curSorted = false
	}
	for {
		bi := int32(w.curBN & bucketMask)
		b := w.buckets[bi]
		if b == nil {
			w.advance(bi)
			continue
		}
		if !w.curSorted {
			w.sortBucket(b)
		}
		for w.curHead < len(b.ev) && b.ev[w.curHead] == nil {
			w.curHead++
		}
		if w.curHead == len(b.ev) {
			panic("sim: wheel bucket live count inconsistent")
		}
		return b.ev[w.curHead]
	}
}

// advance moves the drain cursor to the next non-empty bucket. The
// caller guarantees live > 0, so a set bit exists.
func (w *wheel) advance(from int32) {
	i := int(from >> 6)
	word := w.bitmap[i] &^ (1<<uint(from&63) - 1)
	steps := 0
	for word == 0 {
		i = (i + 1) % bitmapWords
		word = w.bitmap[i]
		steps++
		if steps > bitmapWords {
			panic("sim: wheel bitmap inconsistent")
		}
	}
	found := int32(i<<6 + bits.TrailingZeros64(word))
	w.curBN += int64((found - from) & bucketMask)
	w.curHead = 0
	w.curSorted = false
}

// sortBucket compacts cancelled entries out of the bucket about to be
// drained and sorts it by (time, seq) unless its appends kept that order.
func (w *wheel) sortBucket(b *bucket) {
	w.curHead = 0
	w.curSorted = true
	if !b.unsorted && int(b.live) == len(b.ev) {
		return // nothing cancelled, nothing out of order: every idx holds
	}
	live := b.ev[:0]
	for _, e := range b.ev {
		if e != nil {
			live = append(live, e)
		}
	}
	if b.unsorted {
		sortEvents(live)
		b.unsorted = false
	}
	for i, e := range live {
		e.idx = int32(i)
	}
	// Clear the tail so extracted slots stay nil.
	clear(b.ev[len(live):])
	b.ev = live
}

// extract removes the event front returned.
func (w *wheel) extract() {
	bi := int32(w.curBN & bucketMask)
	b := w.buckets[bi]
	b.ev[w.curHead] = nil
	w.curHead++
	w.live--
	if b.live--; b.live == 0 {
		w.reset(bi, b)
	}
}

// remove detaches a cancelled event from its bucket.
func (w *wheel) remove(e *Event) {
	bi := e.slot - w.tag
	b := w.buckets[bi]
	if w.curSorted && bi == int32(w.curBN&bucketMask) {
		// Keep the sorted drain region contiguous and nil-free.
		ev := b.ev
		i := int(e.idx)
		copy(ev[i:], ev[i+1:])
		ev[len(ev)-1] = nil
		b.ev = ev[:len(ev)-1]
		for j := i; j < len(b.ev); j++ {
			b.ev[j].idx = int32(j)
		}
	} else {
		b.ev[e.idx] = nil
	}
	w.live--
	if b.live--; b.live == 0 {
		w.reset(bi, b)
	}
}

// reset retires an emptied bucket to spare; its events are all nil by
// now.
func (w *wheel) reset(bi int32, b *bucket) {
	b.ev, b.unsorted = b.ev[:0], false
	w.spare = append(w.spare, b)
	w.buckets[bi] = nil
	w.bitmap[bi>>6] &^= 1 << uint(bi&63)
	if bi == int32(w.curBN&bucketMask) {
		w.curHead = 0
		w.curSorted = false
	}
}

// sortEvents sorts a bucket by (time, seq): insertion sort for the few
// events a near bucket holds, pdqsort beyond.
func sortEvents(live []*Event) {
	if len(live) > 24 {
		slices.SortFunc(live, func(a, b *Event) int {
			if less(a, b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(live); i++ {
		e := live[i]
		j := i - 1
		for j >= 0 && less(e, live[j]) {
			live[j+1] = live[j]
			j--
		}
		live[j+1] = e
	}
}
