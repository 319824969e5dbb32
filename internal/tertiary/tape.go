// Package tertiary models the tertiary level of the Pegasus storage
// hierarchy. §5 scopes the core layer to "reading and writing the data
// on secondary and tertiary storage devices", and the 10-terabyte goal
// is only reachable with a tape tier behind the disk array: at 1994
// disk sizes a 10 TB store is thousands of spindles, but a few tape
// libraries.
//
// The model is a single-drive robotic library with era parameters
// (8 mm helical-scan class): a robot exchange to mount a tape, a wind
// to position it, and a modest streaming rate. All costs are virtual
// time on the shared simulator, so experiments can put numbers on the
// recall penalty that migration policies trade against disk capacity.
package tertiary

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Library errors.
var (
	ErrFull      = errors.New("tertiary: library full")
	ErrNoItem    = errors.New("tertiary: no such item")
	ErrDupItem   = errors.New("tertiary: item exists")
	ErrEmptyItem = errors.New("tertiary: empty item")
)

// Params carries the library cost model.
type Params struct {
	Tapes        int          // slots in the library
	TapeCapacity int64        // bytes per tape
	ExchangeTime sim.Duration // robot unload + load + thread
	SeekBase     sim.Duration // fixed start/stop cost of a reposition
	WindRate     int64        // bytes/s traversed while repositioning
	ReadRate     int64        // streaming read, bytes/s
	WriteRate    int64        // streaming write, bytes/s
}

// DefaultParams sizes an era-appropriate 8 mm library.
func DefaultParams() Params {
	return Params{
		Tapes:        8,
		TapeCapacity: 2 << 30, // 2 GB cartridges
		ExchangeTime: 45 * sim.Second,
		SeekBase:     2 * sim.Second,
		WindRate:     30_000_000, // fast wind
		ReadRate:     500_000,    // ~EXB-8500 class streaming
		WriteRate:    500_000,
	}
}

// item locates one stored object on a tape.
type item struct {
	tape int
	off  int64
	size int64
	data []byte
}

// tape is one cartridge.
type tape struct {
	used int64
}

// Stats aggregates library activity.
type Stats struct {
	Stores     int64
	Recalls    int64
	Exchanges  int64 // robot tape changes
	BytesIn    int64
	BytesOut   int64
	RobotTime  sim.Duration
	WindTime   sim.Duration
	StreamTime sim.Duration
}

// Library is a single-drive robotic tape library.
type Library struct {
	sim   *sim.Sim
	p     Params
	tapes []tape
	items map[string]*item

	mounted int   // tape in the drive; -1 when empty
	head    int64 // byte position of the drive head

	busy  bool
	queue []func()

	Stats Stats
}

// New builds an empty library.
func New(s *sim.Sim, p Params) *Library {
	if p.Tapes <= 0 || p.TapeCapacity <= 0 {
		panic("tertiary: library needs tapes with capacity")
	}
	if p.ReadRate <= 0 || p.WriteRate <= 0 || p.WindRate <= 0 {
		panic("tertiary: rates must be positive")
	}
	return &Library{
		sim:     s,
		p:       p,
		tapes:   make([]tape, p.Tapes),
		items:   make(map[string]*item),
		mounted: -1,
	}
}

// Params returns the library's cost model.
func (l *Library) Params() Params { return l.p }

// Has reports whether an item is stored.
func (l *Library) Has(id string) bool {
	_, ok := l.items[id]
	return ok
}

// Size reports a stored item's length.
func (l *Library) Size(id string) (int64, error) {
	it, ok := l.items[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	return it.size, nil
}

// StoredBytes reports total bytes on tape.
func (l *Library) StoredBytes() int64 {
	var n int64
	for _, t := range l.tapes {
		n += t.used
	}
	return n
}

// Capacity reports the library's total byte capacity.
func (l *Library) Capacity() int64 {
	return int64(l.p.Tapes) * l.p.TapeCapacity
}

// enqueue serialises operations on the single drive.
func (l *Library) enqueue(op func()) {
	if l.busy {
		l.queue = append(l.queue, op)
		return
	}
	l.busy = true
	op()
}

// opDone releases the drive to the next queued operation.
func (l *Library) opDone() {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	next()
}

// position mounts the tape and winds to off, then runs fn. The costs —
// robot exchange, wind — are where tertiary latency lives.
func (l *Library) position(tapeIdx int, off int64, fn func()) {
	var cost sim.Duration
	if l.mounted != tapeIdx {
		cost += l.p.ExchangeTime
		l.Stats.Exchanges++
		l.Stats.RobotTime += l.p.ExchangeTime
		// A fresh mount starts at the beginning of tape.
		l.mounted = tapeIdx
		l.head = 0
	}
	if l.head != off {
		dist := l.head - off
		if dist < 0 {
			dist = -dist
		}
		wind := l.p.SeekBase + sim.Duration(dist*int64(sim.Second)/l.p.WindRate)
		cost += wind
		l.Stats.WindTime += wind
		l.head = off
	}
	if cost == 0 {
		fn()
		return
	}
	l.sim.After(cost, fn)
}

// Store appends an item to a tape with room (preferring the mounted
// tape) and calls done when the data is on tape.
func (l *Library) Store(id string, data []byte, done func(error)) {
	if _, dup := l.items[id]; dup {
		done(fmt.Errorf("%w: %s", ErrDupItem, id))
		return
	}
	if len(data) == 0 {
		done(fmt.Errorf("%w: %s", ErrEmptyItem, id))
		return
	}
	size := int64(len(data))
	tapeIdx := -1
	if l.mounted >= 0 && l.tapes[l.mounted].used+size <= l.p.TapeCapacity {
		tapeIdx = l.mounted
	} else {
		for i := range l.tapes {
			if l.tapes[i].used+size <= l.p.TapeCapacity {
				tapeIdx = i
				break
			}
		}
	}
	if tapeIdx < 0 {
		done(fmt.Errorf("%w: %d bytes do not fit", ErrFull, size))
		return
	}
	// Reserve space now so queued stores see a consistent layout.
	it := &item{tape: tapeIdx, off: l.tapes[tapeIdx].used, size: size,
		data: append([]byte(nil), data...)}
	l.tapes[tapeIdx].used += size
	l.items[id] = it
	l.enqueue(func() {
		l.position(tapeIdx, it.off, func() {
			stream := sim.Duration(size * int64(sim.Second) / l.p.WriteRate)
			l.Stats.StreamTime += stream
			l.sim.After(stream, func() {
				l.head = it.off + size
				l.Stats.Stores++
				l.Stats.BytesIn += size
				l.opDone()
				done(nil)
			})
		})
	})
}

// Recall reads an item back; done receives a copy of its bytes once
// the tape has been mounted, positioned and streamed.
func (l *Library) Recall(id string, done func([]byte, error)) {
	it, ok := l.items[id]
	if !ok {
		done(nil, fmt.Errorf("%w: %s", ErrNoItem, id))
		return
	}
	l.enqueue(func() {
		l.position(it.tape, it.off, func() {
			stream := sim.Duration(it.size * int64(sim.Second) / l.p.ReadRate)
			l.Stats.StreamTime += stream
			l.sim.After(stream, func() {
				l.head = it.off + it.size
				l.Stats.Recalls++
				l.Stats.BytesOut += it.size
				l.opDone()
				done(append([]byte(nil), it.data...), nil)
			})
		})
	})
}

// Delete forgets an item. Tape is append-only: the space is not
// reclaimed until the cartridge is recycled wholesale, so only the
// catalogue entry goes away.
func (l *Library) Delete(id string) error {
	if _, ok := l.items[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	delete(l.items, id)
	return nil
}
