package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The tensor section is the one binary form of a parameter registry,
// shared by model snapshots (Params.Save) and training checkpoints,
// which add the Adam moments. Every integer and value is
// little-endian:
//
//	uint64 tensor count
//	per tensor, in registry order:
//	  uint64  value count n
//	  uint8   1 if the tensor carries Adam moments, else 0
//	  n × float64 values
//	  n × float64 first moments, n × float64 second moments (flag 1 only)
//
// Values are written by their IEEE-754 bits, so a round trip is exact,
// signed zeros included.

// WriteTensors streams p's tensor section to bw straight from the live
// tensors; the caller flushes bw. With a non-nil opt, every tensor opt
// has stepped carries its moments.
func WriteTensors(bw *bufio.Writer, p *Params, opt *Adam) error {
	if err := writeUint64(bw, uint64(len(p.tensors))); err != nil {
		return err
	}
	for _, t := range p.tensors {
		var m, v []float64
		if opt != nil {
			m, v = opt.Moments(t)
		}
		if err := writeUint64(bw, uint64(len(t.W))); err != nil {
			return err
		}
		flag := byte(0)
		if m != nil {
			flag = 1
		}
		if err := bw.WriteByte(flag); err != nil {
			return err
		}
		if err := writeFloats(bw, t.W); err != nil {
			return err
		}
		if m != nil {
			if err := writeFloats(bw, m); err != nil {
				return err
			}
			if err := writeFloats(bw, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadTensors restores a tensor section into p and, when opt is
// non-nil, the moments it carries into opt, a fresh optimizer. data
// must be exactly one section shaped like p: the tensor count, every
// value count, every flag and the total length are checked before
// anything is written, so on error neither p nor opt has changed.
func ReadTensors(data []byte, p *Params, opt *Adam) error {
	if err := checkTensors(data, p); err != nil {
		return err
	}
	off := 8
	for _, t := range p.tensors {
		n := len(t.W)
		moments := data[off+8] == 1
		off = readFloats(t.W, data, off+9)
		if !moments {
			continue
		}
		if opt == nil {
			off += 16 * n
			continue
		}
		m, v := make([]float64, n), make([]float64, n)
		off = readFloats(m, data, off)
		off = readFloats(v, data, off)
		opt.m[t], opt.v[t] = m, v
	}
	return nil
}

// checkTensors validates data as one tensor section shaped like p.
func checkTensors(data []byte, p *Params) error {
	if len(data) < 8 {
		return fmt.Errorf("nn: tensor section of %d bytes has no tensor count", len(data))
	}
	if n := binary.LittleEndian.Uint64(data); n != uint64(len(p.tensors)) {
		return fmt.Errorf("nn: parameter count mismatch: section has %d tensors, model has %d", n, len(p.tensors))
	}
	off := uint64(8)
	for i, t := range p.tensors {
		if uint64(len(data))-off < 9 {
			return fmt.Errorf("nn: tensor section truncated at tensor %q", p.names[i])
		}
		n := binary.LittleEndian.Uint64(data[off:])
		if n != uint64(len(t.W)) {
			return fmt.Errorf("nn: tensor %q size mismatch: section has %d values, model has %d", p.names[i], n, len(t.W))
		}
		flag := data[off+8]
		if flag > 1 {
			return fmt.Errorf("nn: tensor %q has moments flag %d", p.names[i], flag)
		}
		off += 9 + 8*n*(1+2*uint64(flag))
		if off > uint64(len(data)) {
			return fmt.Errorf("nn: tensor section truncated in tensor %q", p.names[i])
		}
	}
	if off != uint64(len(data)) {
		return fmt.Errorf("nn: tensor section has %d trailing bytes", uint64(len(data))-off)
	}
	return nil
}

// writeUint64 writes x through bw's free buffer space.
func writeUint64(bw *bufio.Writer, x uint64) error {
	_, err := bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), x))
	return err
}

// writeFloats appends xs' bits to bw's free buffer space, flushing when
// it is full, so no float is copied through another buffer.
func writeFloats(bw *bufio.Writer, xs []float64) error {
	for len(xs) > 0 {
		buf := bw.AvailableBuffer()
		k := min(cap(buf)/8, len(xs))
		if k == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
			continue
		}
		for _, x := range xs[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// readFloats decodes len(dst) values from data at off and returns the
// offset after them.
func readFloats(dst []float64, data []byte, off int) int {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return off
}

// Save writes the registry's parameter values to w as a tensor section
// without moments. Only values are persisted; the architecture is
// reconstructed by the caller building the same model before Load.
func (p *Params) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := WriteTensors(bw, p, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// Load restores parameter values written by Save into an identically
// shaped registry; on error the registry is unchanged.
func (p *Params) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: reading parameters: %w", err)
	}
	return ReadTensors(data, p, nil)
}
