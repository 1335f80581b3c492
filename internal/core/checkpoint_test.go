package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/sqlx"
)

// fwState is a deep copy of what LoadCheckpoint may change in a
// framework.
type fwState struct {
	w, m, v    [][]float64
	opt        *nn.Adam
	steps      int
	startEpoch int
}

func stateOf(f *Framework) fwState {
	s := fwState{opt: f.opt, steps: f.opt.Steps(), startEpoch: f.StartEpoch}
	for _, t := range f.Model.Params().Tensors() {
		m, v := f.opt.Moments(t)
		s.w = append(s.w, append([]float64(nil), t.W...))
		s.m = append(s.m, append([]float64(nil), m...))
		s.v = append(s.v, append([]float64(nil), v...))
	}
	return s
}

// check fails unless f still holds s, parameters and moments by bits.
func (s fwState) check(t *testing.T, what string, f *Framework) {
	t.Helper()
	if f.opt != s.opt || f.opt.Steps() != s.steps || f.StartEpoch != s.startEpoch {
		t.Fatalf("%s: optimizer or StartEpoch replaced (step %d, StartEpoch %d)", what, f.opt.Steps(), f.StartEpoch)
	}
	for i, tensor := range f.Model.Params().Tensors() {
		m, v := f.opt.Moments(tensor)
		if !sameBits(tensor.W, s.w[i]) || !sameBits(m, s.m[i]) || !sameBits(v, s.v[i]) {
			t.Fatalf("%s: tensor %d changed", what, i)
		}
	}
}

// TestLoadCheckpointRejects feeds LoadCheckpoint truncated, padded,
// mislabelled, legacy and mis-shaped checkpoints: each must fail and
// leave the framework exactly as it was, and the intact checkpoint must
// still load afterwards.
func TestLoadCheckpointRejects(t *testing.T) {
	tf := newTrainFixture(t)
	ctx := context.Background()
	// Build both before training: training grows the shared vocabulary.
	src := tf.buildFW("TRAP", 60)
	dst := tf.buildFW("TRAP", 61)
	rows := tf.f.v.EmbeddingRows()
	for _, f := range []*Framework{src, dst} {
		if _, err := f.RLTrain(ctx, tf.f.e, tf.adv, nil, tf.c, tf.train, 1); err != nil {
			t.Fatal(err)
		}
	}
	dst.StartEpoch = 5
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every tensor boundary of the valid file, from its layout.
	var bounds []int
	off := checkpointHeader + 8
	for _, tensor := range src.Model.Params().Tensors() {
		bounds = append(bounds, off)
		n := 1
		if m, _ := src.opt.Moments(tensor); m != nil {
			n = 3
		}
		off += 9 + 8*n*tensor.Size()
	}
	if off != len(valid) {
		t.Fatalf("checkpoint is %d bytes, its layout says %d", len(valid), off)
	}

	bad := map[string][]byte{
		"empty":             {},
		"inside the header": valid[:checkpointHeader-3],
		"header only":       valid[:checkpointHeader],
		"one byte short":    valid[:len(valid)-1],
		"one trailing byte": append(append([]byte(nil), valid...), 0),
	}
	for i, b := range bounds {
		for _, d := range []int{-1, 0, 1} {
			bad[fmt.Sprintf("cut at tensor %d boundary %+d", i, d)] = valid[:b+d]
		}
	}
	patch := func(at int, with ...byte) []byte {
		c := append([]byte(nil), valid...)
		copy(c[at:], with)
		return c
	}
	bad["wrong magic"] = patch(0, 'X')
	bad["version 3"] = patch(8, 3)
	bad["moments flag 2"] = patch(bounds[0]+8, 2)
	bad["version-1 gob blob"] = gobCheckpoint(t, src, 1)

	// A model over a vocabulary with another number of embedding rows.
	v := BuildVocab(tf.f.e.Schema(), nil)
	for i := 0; v.EmbeddingRows() == rows; i++ {
		v.ID(sqlx.Token{Type: sqlx.TokValue, Text: fmt.Sprintf("'extra-%d'", i)})
	}
	wide := NewFramework(NewTRAPModel(v, Sizes{Embed: 16, Hidden: 16}, rand.New(rand.NewSource(60))), v, SharedTable, 160)
	var wbuf bytes.Buffer
	if err := wide.SaveCheckpoint(&wbuf, 1); err != nil {
		t.Fatal(err)
	}
	bad["different vocabulary size"] = wbuf.Bytes()

	want := stateOf(dst)
	for what, data := range bad {
		if _, err := dst.LoadCheckpoint(data); err == nil {
			t.Errorf("%s (%d bytes): loaded", what, len(data))
		}
		want.check(t, what, dst)
	}

	ep, err := dst.LoadCheckpoint(valid)
	if err != nil || ep != 1 || dst.StartEpoch != 1 {
		t.Fatalf("intact checkpoint: epoch %d, StartEpoch %d, err %v", ep, dst.StartEpoch, err)
	}
	checkSameTraining(t, src, dst)
}

// gobCheckpoint encodes f the way version-1 checkpoints were written: a
// gob blob whose Params field is itself a gob of every tensor's values
// and whose moments cover every tensor, zeros for unstepped ones. trapd
// spools older releases left behind hold this layout.
func gobCheckpoint(t *testing.T, f *Framework, doneEpochs int) []byte {
	type checkpointBlob struct {
		Version      int
		Epoch        int
		Params       []byte
		AdamT        int
		AdamM, AdamV [][]float64
	}
	p := f.Model.Params()
	var params bytes.Buffer
	if err := gob.NewEncoder(&params).Encode(p.State()); err != nil {
		t.Fatal(err)
	}
	blob := checkpointBlob{Version: 1, Epoch: doneEpochs, Params: params.Bytes(), AdamT: f.opt.Steps()}
	for _, tensor := range p.Tensors() {
		m, v := make([]float64, tensor.Size()), make([]float64, tensor.Size())
		fm, fv := f.opt.Moments(tensor)
		copy(m, fm)
		copy(v, fv)
		blob.AdamM, blob.AdamV = append(blob.AdamM, m), append(blob.AdamV, v)
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&blob); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
