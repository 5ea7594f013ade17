package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile reduced to what the per-layer metrics
// need: the share of samples whose innermost repro/internal frame is in
// each module, and the share with runtime.gopanic on the stack (the
// simulator unwinds Go stacks by panicking when a thread blocks with a
// continuation).
type cpuProfile struct {
	shares map[string]float64
	unwind float64
}

// profileCPU runs f under the Go CPU profiler and attributes its samples.
func profileCPU(f func()) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		f()
		return cpuProfile{}, err
	}
	f()
	pprof.StopCPUProfile()
	return attribute(buf.Bytes())
}

const internalPrefix = "repro/internal/"

func attribute(gz []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuProfile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return cpuProfile{}, err
	}
	counts := map[string]float64{}
	var total, unwind float64
	for _, s := range p.samples {
		module := "runtime"
		found, panicked := false, false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fn]]
				if name == "runtime.gopanic" {
					panicked = true
				}
				if !found && strings.HasPrefix(name, internalPrefix) {
					rest := name[len(internalPrefix):]
					if i := strings.IndexAny(rest, "./"); i >= 0 {
						rest = rest[:i]
					}
					module, found = rest, true
				}
			}
		}
		counts[module] += s.count
		total += s.count
		if panicked {
			unwind += s.count
		}
	}
	out := cpuProfile{shares: map[string]float64{}}
	if total == 0 {
		return out, errors.New("cpu profile holds no samples")
	}
	for m, c := range counts {
		out.shares[m] = c / total
	}
	out.unwind = unwind / total
	return out, nil
}

// profile is the subset of the pprof protobuf encoding (profile.proto)
// that attribution reads.
type profile struct {
	strings  []string
	funcName map[uint64]uint64   // function id -> string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	samples  []profSample
}

type profSample struct {
	locs  []uint64 // leaf first
	count float64
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]uint64{}, locFuncs: map[uint64][]uint64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					values = appendVarints(values, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = float64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n >= uint64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside the string table", n)
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: one varint, or
// a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
