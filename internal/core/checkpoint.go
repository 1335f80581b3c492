package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/trap-repro/trap/internal/nn"
)

// A training checkpoint is a fixed little-endian header followed by the
// model's tensor section (nn.WriteTensors) with the Adam moments of
// every tensor the optimizer has stepped:
//
//	8 bytes magic "TRAPckpt"
//	uint32  format version
//	uint64  completed RL epochs
//	uint64  Adam step count
//	tensor section
const (
	checkpointMagic   = "TRAPckpt"
	checkpointVersion = 2 // 1 was a gob blob
	checkpointHeader  = 8 + 4 + 8 + 8
	// checkpointBuffer sizes the one buffered writer a save streams
	// through, so a spool file is written in a few dozen syscalls.
	checkpointBuffer = 64 << 10
)

// SaveCheckpoint writes a resumable training checkpoint after doneEpochs
// completed RL epochs: model parameters plus optimizer state, streamed
// from the live tensors through one buffered writer. A framework
// restored with LoadCheckpoint and trained to the original epoch target
// produces bit-identical parameters to an uninterrupted run with the
// same seed (RLTrain re-seeds its RNG per epoch, so later epochs do not
// depend on the RNG position the interrupted run left behind).
func (f *Framework) SaveCheckpoint(w io.Writer, doneEpochs int) error {
	p := f.Model.Params()
	if p == nil {
		return fmt.Errorf("core: model %s has no parameters to checkpoint", f.Model.Name())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	steps := 0
	if f.opt != nil {
		steps = f.opt.Steps()
	}
	bw := bufio.NewWriterSize(w, checkpointBuffer)
	hdr := append(bw.AvailableBuffer(), checkpointMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, checkpointVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(doneEpochs))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(steps))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := nn.WriteTensors(bw, p, f.opt); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCheckpoint restores a SaveCheckpoint snapshot, the whole file in
// data, into an identically constructed framework (same model kind,
// sizes and vocabulary) and returns the number of completed epochs. It
// sets StartEpoch so the next RLTrain call continues from where the
// checkpointed run stopped. It checks the magic, the version, the
// tensor count, every tensor's length and the total length before it
// writes anything: on error the parameters, the optimizer and
// StartEpoch are unchanged.
func (f *Framework) LoadCheckpoint(data []byte) (int, error) {
	p := f.Model.Params()
	if p == nil {
		return 0, fmt.Errorf("core: model %s has no parameters to restore", f.Model.Name())
	}
	if len(data) < checkpointHeader || string(data[:8]) != checkpointMagic {
		return 0, fmt.Errorf("core: not a checkpoint (%d bytes)", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != checkpointVersion {
		return 0, fmt.Errorf("core: checkpoint version %d, want %d", v, checkpointVersion)
	}
	epochs := binary.LittleEndian.Uint64(data[12:])
	steps := binary.LittleEndian.Uint64(data[20:])
	if epochs > math.MaxInt32 || steps > math.MaxInt32 {
		return 0, fmt.Errorf("core: checkpoint claims %d epochs and %d optimizer steps", epochs, steps)
	}
	opt := nn.NewAdam(f.LR)
	opt.SetSteps(int(steps))
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := nn.ReadTensors(data[checkpointHeader:], p, opt); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	f.opt = opt
	f.StartEpoch = int(epochs)
	return int(epochs), nil
}
