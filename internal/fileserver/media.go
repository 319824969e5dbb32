package fileserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// This file is the continuous-media service stack (§5, §2.2): streams
// are stored in continuous files (separate segments, no caching) and a
// time index is generated from the stream's *control* messages — "the
// storage server stores the data streams and uses the control stream to
// generate indexing information. This information then allows reading
// synchronized streams from a particular point, and fast forward,
// reverse play, etc."

// IndexEntry locates one frame (or audio block run) in a stored stream.
type IndexEntry struct {
	Seq       uint32 // frame id / block sequence from the source
	Timestamp uint64 // capture timestamp from the control stream
	Off       int64  // byte offset in the data file
	Len       int32  // byte length
}

// ErrNoIndex reports a stream without a finalised index.
var ErrNoIndex = errors.New("fileserver: stream has no index")

// idxSuffix names the per-stream index file.
const idxSuffix = ".idx"

// Recorder ingests one stream: payload bytes from the data circuit,
// frame boundaries from the control circuit.
type Recorder struct {
	sv   *Server
	name string

	off      int64
	curStart int64
	index    []IndexEntry
	closed   bool
}

// NewRecorder creates the continuous data file and starts recording.
func (sv *Server) NewRecorder(name string) (*Recorder, error) {
	if err := sv.Create(name, true); err != nil {
		return nil, err
	}
	return &Recorder{sv: sv, name: name}, nil
}

// Append stores payload bytes at the tail of the stream. b stays the
// caller's (a reassembly buffer may be reused): the store is handed a copy
// taken here.
func (r *Recorder) Append(b []byte) error {
	if r.closed {
		return errors.New("fileserver: recorder closed")
	}
	if err := r.sv.Write(r.name, r.off, append([]byte(nil), b...)); err != nil {
		return err
	}
	r.off += int64(len(b))
	return nil
}

// MarkFrame records a frame boundary from the control stream: all bytes
// appended since the previous mark belong to (seq, ts).
func (r *Recorder) MarkFrame(seq uint32, ts uint64) {
	r.index = append(r.index, IndexEntry{
		Seq:       seq,
		Timestamp: ts,
		Off:       r.curStart,
		Len:       int32(r.off - r.curStart),
	})
	r.curStart = r.off
}

// Frames reports indexed frames so far.
func (r *Recorder) Frames() int { return len(r.index) }

// Finalize writes the index file; the stream is then open for playback.
func (r *Recorder) Finalize() error {
	if r.closed {
		return nil
	}
	r.closed = true
	blob := make([]byte, 4, 4+24*len(r.index))
	binary.BigEndian.PutUint32(blob, uint32(len(r.index)))
	for _, e := range r.index {
		blob = binary.BigEndian.AppendUint32(blob, e.Seq)
		blob = binary.BigEndian.AppendUint64(blob, e.Timestamp)
		blob = binary.BigEndian.AppendUint64(blob, uint64(e.Off))
		blob = binary.BigEndian.AppendUint32(blob, uint32(e.Len))
	}
	if err := r.sv.Create(r.name+idxSuffix, false); err != nil {
		return err
	}
	return r.sv.Write(r.name+idxSuffix, 0, blob)
}

// Player reads a stored stream through its index.
type Player struct {
	sv    *Server
	name  string
	index []IndexEntry
}

// OpenStream loads a stream's index for playback.
func (sv *Server) OpenStream(name string, done func(*Player, error)) {
	idxName := name + idxSuffix
	if !sv.Exists(idxName) {
		done(nil, fmt.Errorf("%w: %s", ErrNoIndex, name))
		return
	}
	sz, err := sv.Size(idxName)
	if err != nil {
		done(nil, err)
		return
	}
	sv.Read(idxName, 0, int(sz), func(b []byte, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		if len(b) < 4 {
			done(nil, ErrNoIndex)
			return
		}
		count := int(binary.BigEndian.Uint32(b))
		if len(b) < 4+24*count {
			done(nil, ErrNoIndex)
			return
		}
		p := &Player{sv: sv, name: name, index: make([]IndexEntry, count)}
		for i := 0; i < count; i++ {
			o := 4 + 24*i
			p.index[i] = IndexEntry{
				Seq:       binary.BigEndian.Uint32(b[o:]),
				Timestamp: binary.BigEndian.Uint64(b[o+4:]),
				Off:       int64(binary.BigEndian.Uint64(b[o+12:])),
				Len:       int32(binary.BigEndian.Uint32(b[o+20:])),
			}
		}
		done(p, nil)
	})
}

// Frames reports the number of indexed frames.
func (p *Player) Frames() int { return len(p.index) }

// Entry returns one index entry.
func (p *Player) Entry(i int) IndexEntry { return p.index[i] }

// SeekTime returns the first frame with Timestamp >= ts — "go to
// specific time offsets into a media file".
func (p *Player) SeekTime(ts uint64) int {
	return sort.Search(len(p.index), func(i int) bool {
		return p.index[i].Timestamp >= ts
	})
}

// ReadFrame fetches one frame's payload.
func (p *Player) ReadFrame(i int, done func([]byte, error)) {
	if i < 0 || i >= len(p.index) {
		done(nil, fmt.Errorf("fileserver: frame %d out of range", i))
		return
	}
	e := p.index[i]
	p.sv.Read(p.name, e.Off, int(e.Len), done)
}

// FastForward returns the frame indices for playback at the given
// stride (every stride-th frame) starting at from — the index makes
// this a pure metadata operation.
func (p *Player) FastForward(from, stride int) []int {
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := from; i < len(p.index); i += stride {
		out = append(out, i)
	}
	return out
}

// Reverse returns frame indices for reverse play starting at from.
func (p *Player) Reverse(from int) []int {
	if from >= len(p.index) {
		from = len(p.index) - 1
	}
	var out []int
	for i := from; i >= 0; i-- {
		out = append(out, i)
	}
	return out
}
