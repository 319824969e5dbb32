package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A reader for the pprof files pegload writes — gzip around the
// profile.proto message — covering only what the layer fold needs:
// sample types, samples, and the function names behind each location.
// go.mod stays dependency-free.

// profile is a decoded pprof file.
type profile struct {
	sampleTypes []string // "cpu", "alloc_space", ...
	samples     []sample
	// frames lists each location's function names, innermost inlined
	// call first.
	frames map[uint64][]string
}

// sample is one stack, leaf first, with one value per sample type.
type sample struct {
	locations []uint64
	values    []int64
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(msg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated message")

// protoBuf is a cursor over one protobuf message.
type protoBuf []byte

func (b *protoBuf) varint() (uint64, error) {
	var v uint64
	for i := 0; i < len(*b) && i < 10; i++ {
		c := (*b)[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			*b = (*b)[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

// field reads the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped over and
// returned empty; profile.proto has none the fold reads.
func (b *protoBuf) field() (num int, v uint64, data protoBuf, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = b.varint()
	case 1:
		err = b.skip(8)
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if n > uint64(len(*b)) {
				return 0, 0, nil, errTruncated
			}
			data, *b = (*b)[:n], (*b)[n:]
		}
	case 5:
		err = b.skip(4)
	default:
		err = fmt.Errorf("pprof: wire type %d", key&7)
	}
	return num, v, data, err
}

func (b *protoBuf) skip(n int) error {
	if n > len(*b) {
		return errTruncated
	}
	*b = (*b)[n:]
	return nil
}

// repeated appends one occurrence of a repeated integer field, which
// arrives either packed (data) or one value at a time (v).
func repeated(dst []uint64, v uint64, data protoBuf) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(msg protoBuf) (*profile, error) {
	var (
		p         = &profile{frames: map[uint64][]string{}}
		strs      []string
		typeIdx   []uint64                // sample_type.type, as string-table indices
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> name index
	)
	for len(msg) > 0 {
		num, _, data, err := msg.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ uint64
			for len(data) > 0 {
				n, v, _, err := data.field()
				if err != nil {
					return nil, err
				}
				if n == 1 {
					typ = v
				}
			}
			typeIdx = append(typeIdx, typ)
		case 2: // sample: Sample{location_id=1, value=2}
			var (
				s    sample
				vals []uint64
			)
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locations, err = repeated(s.locations, v, d)
				case 2:
					vals, err = repeated(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location: Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var funcs []uint64
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					for len(d) > 0 {
						ln, lv, _, err := d.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			for len(data) > 0 {
				n, v, _, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, funcs := range locFuncs {
		names := make([]string, len(funcs))
		for j, f := range funcs {
			var err error
			if names[j], err = str(funcNames[f]); err != nil {
				return nil, err
			}
		}
		p.frames[id] = names
	}
	return p, nil
}

const repoPrefix = "repro/internal/"

// layerOf names the layer a function belongs to, or "" when it is not
// in one of the listed modules (runtime, the standard library,
// pegload's main, a repo package the benchmark does not attribute to).
func layerOf(function string) string {
	rest, ok := strings.CutPrefix(function, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest && l != "runtime" {
			return l
		}
	}
	return ""
}

// fold charges every sample of the given type to the leaf-most frame
// that lies in a listed layer — so memmove, mallocgc or crc32 under
// raid.(*Array).Read count as raid's, not the runtime's — and samples
// with no such frame to "runtime". The per-layer values sum to the
// profile's total exactly.
func (p *profile) fold(sampleType string) (map[string]int64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("pprof: no %q among sample types %v", sampleType, p.sampleTypes)
	}
	byLayer := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, errTruncated
		}
		byLayer[p.owner(s)] += s.values[col]
	}
	return byLayer, nil
}

func (p *profile) owner(s sample) string {
	for _, loc := range s.locations {
		for _, fn := range p.frames[loc] {
			if l := layerOf(fn); l != "" {
				return l
			}
		}
	}
	return "runtime"
}
