package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps every internal/* package whose code runs inside a
// simulation to the layer its CPU time is charged to.
var layerOf = map[string]string{
	"cache":    "cache",
	"proc":     "proc",
	"workload": "workload",
	"protocol": "protocol",
	"sim":      "sim",
	"network":  "network",
	"topology": "network", // route computation on behalf of Send
	"msg":      "network", // pooled messages the network carries
	"core":     "core",
	"machine":  "machine",
	"snoop":    "snoop",
	"runner":   "runner",
	"campaign": "campaign",
	"scenario": "campaign", // run descriptions Expand assembles
	"stats":    "campaign", // summaries Reduce computes
}

// notLayer lists the internal/* packages that are not layers, with the
// reason. Samples whose leaf-most frames lie in them fold into the
// nearest calling layer further up the stack.
var notLayer = map[string]string{
	"analysis": "static analyzers; never run in a simulation",
	"backend":  "interface-only contract shared by both backends",
	"benchcmp": "benchmark-comparison tooling",
	"checker":  "coherence fuzzing front end; not on the benchmark's path",
	"config":   "parameter validation, part of input parsing",
	"explore":  "design-space search front end",
	"fault":    "fault events arm once and then fire from network or snoop hooks",
	"harness":  "experiment registry front end",
	"iodev":    "per-node I/O buffers driven by the processor",
	"serve":    "campaign daemon; not on the benchmark's path",
}

// layers is every layer a CPU share is reported for, in report order.
var layers = []string{"cache", "proc", "workload", "protocol", "sim", "network",
	"core", "machine", "snoop", "runner", "campaign"}

const modulePrefix = "safetynet/internal/"

// funcPackage returns the import path of a symbol name as pprof records
// it ("safetynet/internal/cache.(*Array).Lookup" → "safetynet/internal/cache").
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isGC reports whether a frame belongs to the collector: background
// marking, mark assists charged to allocating code, and sweeping.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute charges one sample's stack (leaf first) to a layer: "gc" when
// any frame is collector work, otherwise the layer of the leaf-most frame
// in a layer package, otherwise "unattributed" (scheduler, the
// benchmark's own code, and the standard library outside a layer call).
func attribute(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
			if l, ok := layerOf[rest]; ok {
				return l
			}
		}
	}
	return "unattributed"
}

// foldProfile decodes a gzip-compressed pprof CPU profile and returns the
// CPU nanoseconds attributed to each layer (see attribute), the total,
// and the sample count.
func foldProfile(data []byte) (byLayer map[string]int64, total int64, samples int, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, 0, err
	}
	byLayer = map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		v := s.value(p.valueIdx)
		byLayer[attribute(stack)] += v
		total += v
		samples++
	}
	return byLayer, total, samples, nil
}

// The decoder below reads the subset of profile.proto a CPU profile
// needs: sample types, samples, locations with their inlined lines, the
// function table, and the string table.

type pbSample struct {
	locs   []uint64
	values []int64
}

func (s pbSample) value(i int) int64 {
	if i < len(s.values) {
		return s.values[i]
	}
	return 0
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string index
	strings  []string
	valueIdx int // index of the cpu/nanoseconds value
}

func (p *pbProfile) str(i int64) string {
	if i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

var errTruncated = errors.New("profile: truncated protobuf")

func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields calls f for every field of one message: val holds a varint or
// fixed-width value, sub the payload of a length-delimited field.
func fields(b []byte, f func(num int, val uint64, sub []byte, delimited bool) error) error {
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var val uint64
		var sub []byte
		switch wire {
		case 0:
			if val, n, err = uvarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n, err := uvarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, val, sub, wire == 2); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, val uint64, sub []byte, delimited bool) ([]uint64, error) {
	if !delimited {
		return append(dst, val), nil
	}
	for len(sub) > 0 {
		v, n, err := uvarint(sub)
		if err != nil {
			return nil, err
		}
		dst, sub = append(dst, v), sub[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var sampleTypes []int64 // string index of each value's type
	err := fields(raw, func(num int, val uint64, sub []byte, delimited bool) error {
		switch num {
		case 1: // sample_type
			return fields(sub, func(n int, v uint64, _ []byte, _ bool) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := fields(sub, func(n int, v uint64, sb []byte, d bool) error {
				var err error
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, sb, d)
				case 2:
					var vs []uint64
					vs, err = varints(nil, v, sb, d)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(sub, func(n int, v uint64, sb []byte, _ bool) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(sb, func(ln int, lv uint64, _ []byte, _ bool) error {
						if ln == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(sub, func(n int, v uint64, _ []byte, _ bool) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if p.str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	return p, nil
}
