package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The profile fold attributes CPU time inside calls the benchmark's spans
// cannot split, such as Fabric.Run. Each runtime/pprof CPU sample is
// charged to the layer of its leaf frame: a netfi/internal package by its
// name, the Go runtime (package runtime and internal/runtime/...) as
// "runtime", and everything else (the standard
// library, this benchmark, netfi packages no workload exercises) as
// "other". The layer shares sum to 1. runtime.sync_cpu_share is counted
// apart, inclusively: the share of samples with a sync.Mutex or
// sync.RWMutex method anywhere on the stack, whatever the leaf.

// foldLayers are the layers reported as <layer>.cpu_share; the leaf frames
// of any other package count as "other".
var foldLayers = []string{
	"sim", "phy", "myrinet", "topo", "core", "rules", "campaign",
	"host", "monitor", "serial", "bitstream", "runtime",
}

// fold accumulates CPU nanoseconds by layer over one or more profiles.
type fold struct {
	byLayer map[string]int64
	sync    int64
	total   int64
}

func newFold() fold { return fold{byLayer: make(map[string]int64)} }

// shares reports each layer's share of the folded CPU time as
// <layer>.cpu_share metrics, plus other.cpu_share and
// runtime.sync_cpu_share. With no samples every share is 0.
func (f *fold) shares() map[string]float64 {
	out := make(map[string]float64)
	total := float64(f.total)
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / total
	}
	for _, l := range append(foldLayers, "other") {
		out[l+".cpu_share"] = share(f.byLayer[l])
	}
	out["runtime.sync_cpu_share"] = share(f.sync)
	return out
}

// layerOf maps a function's symbol name to its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "netfi/internal/"); ok {
		for _, l := range foldLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// isMutexFrame reports whether a symbol is a sync.Mutex or sync.RWMutex
// method (Go 1.24 moved the implementation to internal/sync).
func isMutexFrame(fn string) bool {
	for _, p := range []string{"sync.(*Mutex).", "sync.(*RWMutex).", "internal/sync.(*Mutex)."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// add folds one gzipped pprof CPU profile.
func (f *fold) add(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return fmt.Errorf("folding CPU profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		w := s.values[len(s.values)-1] // cpu nanoseconds
		leaf := p.locs[s.locs[0]]
		layer := "other"
		if len(leaf) > 0 {
			layer = layerOf(p.funcName(leaf[0]))
		}
		f.byLayer[layer] += w
		f.total += w
	stack:
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				if isMutexFrame(p.funcName(fid)) {
					f.sync += w
					break stack
				}
			}
		}
	}
	return nil
}

// profile is the part of a decoded profile.proto the fold needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (wire type 2) or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
