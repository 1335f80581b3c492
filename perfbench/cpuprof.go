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

// cpuBuckets are the layers CPU samples are split into; the cpu.<bucket>
// shares sum to 1.
var cpuBuckets = []string{"engine", "advisor", "nn", "core", "gbdt", "sqlx", "gc", "service", "other"}

// pkgBucket maps a package under internal/ to its bucket; unlisted
// packages (assess, workload, schema, par, ...) count as "other".
var pkgBucket = map[string]string{
	"engine": "engine", "advisor": "advisor", "nn": "nn", "core": "core",
	"costmodel": "gbdt", "gbdt": "gbdt", "sqlx": "sqlx",
	"service": "service", "admission": "service", "joblog": "service",
	"trace": "service", "telemetry": "service", "obs": "service",
}

const internalPrefix = "github.com/trap-repro/trap/internal/"

// sampleBucket buckets one stack (function names, leaf first). A stack
// inside the garbage collector (background marking, sweeping, or an
// allocation's mark assist) is "gc"; otherwise the innermost frame of a
// package under internal/ decides, so runtime work such as allocation
// and copying counts toward the layer that asked for it. Stacks with no
// such frame are "other".
func sampleBucket(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.bgscavenge" || fn == "runtime.sweepone" || fn == "runtime.deductSweepCredit" {
			return "gc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		if b, ok := pkgBucket[rest]; ok {
			return b
		}
		return "other"
	}
	return "other"
}

// setCPUShares reports each bucket's share of the CPU samples.
func setCPUShares(r *run, samples map[string]float64) {
	var total float64
	for _, v := range samples {
		total += v
	}
	if total == 0 {
		return
	}
	for _, b := range cpuBuckets {
		r.set("cpu."+b, samples[b]/total)
	}
}

// profileBuckets decodes a gzipped pprof CPU profile (the protobuf
// runtime/pprof writes) and counts its samples per bucket.
func profileBuckets(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	if len(data) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]int64{}    // function id → name's string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	// Field numbers from pprof's profile.proto.
	err = eachField(raw, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			nvals := 0
			return eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					ids, err := varints(wt, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // Sample.value; the first is the sample count
					vals, err := varints(wt, v, b)
					for _, x := range vals {
						if nvals == 0 {
							s.count = int64(x)
						}
						nvals++
					}
					return err
				}
				return nil
			}, func() { samples = append(samples, s) })
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			return eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(num, wt int, v uint64, b []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { locs[id] = fns })
		case 5: // Profile.function
			var id uint64
			var name int64
			return eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			}, func() { funcs[id] = name })
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i, ok := funcs[f]; ok && i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[sampleBucket(stack)] += float64(s.count)
	}
	return out, nil
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// the field number, wire type, varint value (wire types 0, 1 and 5) and
// payload (wire type 2); done, when non-nil, runs after the last field.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error, done func()) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wt int, v uint64, b []byte) ([]uint64, error) {
	if wt != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
