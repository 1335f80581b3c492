package core

import (
	"math/rand"

	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/sqlx"
)

// Scorer is a generation model: it reads the input query's token ids and
// scores candidate tokens step by step while the Session enforces the
// grammar and perturbation constraints. TRAP, the baselines of Section
// V-B (Random, GRU, Seq2Seq) and the PLM variants of Section V-C all
// implement it, so every generator shares the same tree masking.
type Scorer interface {
	// Name identifies the model.
	Name() string
	// Params returns the trainable parameters (nil for Random).
	Params() *nn.Params
	// Begin starts decoding an input token-id sequence.
	Begin(g *nn.Graph, input []int) DecState
	// Score returns logits (len(cands)×1) for the candidate ids.
	Score(g *nn.Graph, st DecState, cands []int) *nn.Tensor
	// Advance consumes the chosen token id and returns the next state.
	Advance(g *nn.Graph, st DecState, chosen int) DecState
	// ResetDecoder re-initializes the decoder parameters, keeping the
	// encoder — the paper's encoder-only transfer between pretraining and
	// RL (Section IV-C).
	ResetDecoder(rng *rand.Rand)
}

// DecState is a model-specific decoding state.
type DecState interface{}

// passScorer is a Scorer whose encoder forward pass can be computed once
// and shared by several decodes of the same input under the same
// parameters — the greedy baseline and the sampled trajectories of one
// RL step. EncodePass runs the encoder off any tape; BeginPass starts a
// decode from a pass, recording the encoder's backward on g when g
// records. Begin(g, input) is BeginPass(g, EncodePass(g, input)), bit
// for bit.
type passScorer interface {
	Scorer
	EncodePass(g *nn.Graph, input []int) *encPass
	BeginPass(g *nn.Graph, p *encPass) DecState
}

// encPass is one input's encoder forward pass, valid until the Reset of
// the graph it was computed on.
type encPass struct {
	ids []int
	enc *nn.BiGRUPass
}

// Sizes configures model dimensions.
type Sizes struct {
	Embed  int
	Hidden int
}

// DefaultSizes returns the experiment-scale dimensions (the paper uses
// embedding size 128; the reproduction defaults to 48 for laptop-scale
// training and all sizes are configurable).
func DefaultSizes() Sizes { return Sizes{Embed: 48, Hidden: 48} }

// trapState is the decoding state of the attention models: the packed
// encoder state matrix (inside the attention cache, whose Wh·H
// projection is computed once per sequence on the first Score) plus the
// decoder state.
type trapState struct {
	att  *nn.AttCache
	s    *nn.Tensor
	prev int
}

// TRAPModel is the paper's generator (Section IV-A): Bi-GRU encoder, GRU
// decoder, SQL context attention (Equation 3) and a masked output layer
// over [c_t; s_t; emb(q'_{t-1})] (Equation 4).
type TRAPModel struct {
	sizes Sizes

	encParams *nn.Params
	decParams *nn.Params
	all       *nn.Params

	emb     *nn.Embedding // shared input/output embedding (encoder side)
	enc     *nn.BiGRU
	bridge  *nn.Dense // encoder final state -> decoder initial state
	att     *nn.Attention
	dec     *nn.GRUCell
	decEmb  *nn.Embedding
	outW    *nn.Tensor
	outB    *nn.Tensor
	embRows int
}

// NewTRAPModel builds the model over a vocabulary.
func NewTRAPModel(v *Vocab, sizes Sizes, rng *rand.Rand) *TRAPModel {
	m := &TRAPModel{sizes: sizes, embRows: v.EmbeddingRows()}
	m.encParams = &nn.Params{}
	m.emb = nn.NewEmbedding(m.encParams, "emb", m.embRows, sizes.Embed, rng)
	m.enc = nn.NewBiGRU(m.encParams, "enc", sizes.Embed, sizes.Hidden, rng)
	m.initDecoder(rng)
	return m
}

func (m *TRAPModel) initDecoder(rng *rand.Rand) {
	s := m.sizes
	m.decParams = &nn.Params{}
	m.bridge = nn.NewDense(m.decParams, "bridge", 2*s.Hidden, s.Hidden, rng)
	m.att = nn.NewAttention(m.decParams, "att", 2*s.Hidden, s.Hidden, s.Hidden, rng)
	m.dec = nn.NewGRUCell(m.decParams, "dec", s.Embed, s.Hidden, rng)
	m.decEmb = nn.NewEmbedding(m.decParams, "decemb", m.embRows, s.Embed, rng)
	outIn := 2*s.Hidden + s.Hidden + s.Embed // [c_t; s_t; emb(prev)]
	m.outW = m.decParams.Add("out.W", nn.RandTensor(m.embRows, outIn, 0.05, rng))
	m.outB = m.decParams.Add("out.B", nn.NewTensor(m.embRows, 1))
	m.all = nil
}

// Name implements Scorer.
func (m *TRAPModel) Name() string { return "TRAP" }

// Params implements Scorer.
func (m *TRAPModel) Params() *nn.Params {
	if m.all == nil {
		m.all = &nn.Params{}
		m.all.Merge("enc", m.encParams)
		m.all.Merge("dec", m.decParams)
	}
	return m.all
}

// EncoderParams returns only the encoder parameters (for encoder-only
// transfer and pretraining-phase optimizers).
func (m *TRAPModel) EncoderParams() *nn.Params { return m.encParams }

// ResetDecoder implements Scorer.
func (m *TRAPModel) ResetDecoder(rng *rand.Rand) { m.initDecoder(rng) }

// Begin implements Scorer.
func (m *TRAPModel) Begin(g *nn.Graph, input []int) DecState {
	return m.begin(g, m.enc.EncodePacked(g, m.embed(g, input)))
}

// EncodePass implements passScorer.
func (m *TRAPModel) EncodePass(g *nn.Graph, input []int) *encPass {
	return &encPass{ids: input, enc: m.enc.Pass(g, m.embed(g, input))}
}

// BeginPass implements passScorer: the encoder's input gradients land
// in the embedding rows of the pass's tokens.
func (m *TRAPModel) BeginPass(g *nn.Graph, p *encPass) DecState {
	return m.begin(g, m.enc.Record(g, p.enc, m.embed(g, p.ids)))
}

// embed looks up the encoder inputs of a token-id sequence on g.
func (m *TRAPModel) embed(g *nn.Graph, input []int) []*nn.Tensor {
	xs := make([]*nn.Tensor, len(input))
	for i, id := range input {
		xs[i] = m.emb.Lookup(g, clampID(id, m.embRows))
	}
	return xs
}

// begin bridges the packed encoder states H into the decoder's state.
func (m *TRAPModel) begin(g *nn.Graph, H *nn.Tensor) DecState {
	s0 := g.Tanh(m.bridge.Apply(g, g.Col(H, H.C-1)))
	return &trapState{att: &nn.AttCache{H: H}, s: s0, prev: 0}
}

// Score implements Scorer: Equation 4 restricted to the candidate region.
func (m *TRAPModel) Score(g *nn.Graph, st DecState, cands []int) *nn.Tensor {
	t := st.(*trapState)
	ctx, _ := m.att.ContextPre(g, t.att, t.s)
	prevEmb := m.decEmb.Lookup(g, clampID(t.prev, m.embRows))
	x := g.Concat(ctx, t.s, prevEmb)
	rows := make([]int, len(cands))
	for i, c := range cands {
		rows[i] = clampID(c, m.embRows)
	}
	return g.SelectedAffine(m.outW, m.outB, x, rows)
}

// Advance implements Scorer. Decoding consumes states linearly (callers
// always replace the old state with the returned one), so the state is
// mutated in place instead of allocating one struct per step.
func (m *TRAPModel) Advance(g *nn.Graph, st DecState, chosen int) DecState {
	t := st.(*trapState)
	x := m.decEmb.Lookup(g, clampID(chosen, m.embRows))
	t.s = m.dec.Step(g, x, t.s)
	t.prev = chosen
	return t
}

func clampID(id, rows int) int {
	if id >= rows {
		return id % rows
	}
	return id
}

// EncodeVector returns the mean-pooled encoder representation of a query
// — the query vectors visualized in Figure 17's OOD analysis.
func (m *TRAPModel) EncodeVector(v *Vocab, q *sqlx.Query) []float64 {
	g := nn.NewGraph(false)
	st := m.Begin(g, v.Encode(q)).(*trapState)
	H := st.att.H
	out := make([]float64, H.R)
	for i := range out {
		var s float64
		for j := 0; j < H.C; j++ {
			s += H.W[i*H.C+j]
		}
		out[i] = s / float64(H.C)
	}
	return out
}

// Seq2SeqModel is the vanilla baseline: the same Bi-GRU encoder and GRU
// decoder without the SQL context attention (the decoder sees only the
// bridged final encoder state).
type Seq2SeqModel struct {
	*TRAPModel
}

// NewSeq2Seq builds the attention-free baseline.
func NewSeq2Seq(v *Vocab, sizes Sizes, rng *rand.Rand) *Seq2SeqModel {
	return &Seq2SeqModel{TRAPModel: NewTRAPModel(v, sizes, rng)}
}

// Name implements Scorer.
func (m *Seq2SeqModel) Name() string { return "Seq2Seq" }

// Score implements Scorer without attention: the "context" is the final
// encoder state for every step.
func (m *Seq2SeqModel) Score(g *nn.Graph, st DecState, cands []int) *nn.Tensor {
	t := st.(*trapState)
	ctx := g.Col(t.att.H, t.att.H.C-1)
	prevEmb := m.decEmb.Lookup(g, clampID(t.prev, m.embRows))
	x := g.Concat(ctx, t.s, prevEmb)
	rows := make([]int, len(cands))
	for i, c := range cands {
		rows[i] = clampID(c, m.embRows)
	}
	return g.SelectedAffine(m.outW, m.outB, x, rows)
}

// gruState is the decoder-only state.
type gruState struct {
	s    *nn.Tensor
	prev int
}

// GRUModel is the decoder-only baseline of Section V-B: a single GRU
// language model over the generated prefix, with no encoder at all.
type GRUModel struct {
	sizes   Sizes
	params  *nn.Params
	emb     *nn.Embedding
	cell    *nn.GRUCell
	outW    *nn.Tensor
	outB    *nn.Tensor
	embRows int
}

// NewGRUModel builds the decoder-only baseline.
func NewGRUModel(v *Vocab, sizes Sizes, rng *rand.Rand) *GRUModel {
	m := &GRUModel{sizes: sizes, params: &nn.Params{}, embRows: v.EmbeddingRows()}
	m.emb = nn.NewEmbedding(m.params, "emb", m.embRows, sizes.Embed, rng)
	m.cell = nn.NewGRUCell(m.params, "gru", sizes.Embed, sizes.Hidden, rng)
	outIn := sizes.Hidden + sizes.Embed
	m.outW = m.params.Add("out.W", nn.RandTensor(m.embRows, outIn, 0.05, rng))
	m.outB = m.params.Add("out.B", nn.NewTensor(m.embRows, 1))
	return m
}

// Name implements Scorer.
func (m *GRUModel) Name() string { return "GRU" }

// Params implements Scorer.
func (m *GRUModel) Params() *nn.Params { return m.params }

// ResetDecoder implements Scorer (the whole model is a decoder; the
// baseline has nothing to transfer, so this is a no-op).
func (m *GRUModel) ResetDecoder(*rand.Rand) {}

// Begin implements Scorer (the input is ignored: no encoder). The zero
// initial state lives in the graph's arena, not the heap.
func (m *GRUModel) Begin(g *nn.Graph, input []int) DecState {
	return &gruState{s: g.Alloc(m.cell.Hidden, 1), prev: 0}
}

// Score implements Scorer.
func (m *GRUModel) Score(g *nn.Graph, st DecState, cands []int) *nn.Tensor {
	t := st.(*gruState)
	prevEmb := m.emb.Lookup(g, clampID(t.prev, m.embRows))
	x := g.Concat(t.s, prevEmb)
	rows := make([]int, len(cands))
	for i, c := range cands {
		rows[i] = clampID(c, m.embRows)
	}
	return g.SelectedAffine(m.outW, m.outB, x, rows)
}

// Advance implements Scorer, mutating the state in place (decoding uses
// states linearly; see TRAPModel.Advance).
func (m *GRUModel) Advance(g *nn.Graph, st DecState, chosen int) DecState {
	t := st.(*gruState)
	x := m.emb.Lookup(g, clampID(chosen, m.embRows))
	t.s = m.cell.Step(g, x, t.s)
	t.prev = chosen
	return t
}

// RandomModel scores every candidate equally: uniform sampling through
// the same reference-tree masking (the Random baseline of Section V-B).
type RandomModel struct{}

// Name implements Scorer.
func (RandomModel) Name() string { return "Random" }

// Params implements Scorer.
func (RandomModel) Params() *nn.Params { return nil }

// ResetDecoder implements Scorer.
func (RandomModel) ResetDecoder(*rand.Rand) {}

// Begin implements Scorer.
func (RandomModel) Begin(*nn.Graph, []int) DecState { return nil }

// Score implements Scorer with all-zero logits (uniform).
func (RandomModel) Score(g *nn.Graph, _ DecState, cands []int) *nn.Tensor {
	return g.Alloc(len(cands), 1)
}

// Advance implements Scorer.
func (RandomModel) Advance(_ *nn.Graph, st DecState, _ int) DecState { return st }
