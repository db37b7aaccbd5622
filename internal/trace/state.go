package trace

import (
	"encoding/json"
	"fmt"

	"galsim/internal/workload"
)

// ReplayState is a ReplaySource's snapshot form. The stream position is the
// number of records consumed since the last rewind — the lookahead buffer
// holds only peeked-not-consumed records, which a restored source re-decodes
// on demand, so it needs no serialization.
type ReplayState struct {
	Discarded uint64 `json:"discarded"`
	Wrapped   uint64 `json:"wrapped"`
	Served    uint64 `json:"served"`
	InWP      bool   `json:"in_wp,omitempty"`
	Synth     bool   `json:"synth,omitempty"`
	SynthPC   uint64 `json:"synth_pc,omitempty"`
	WpNext    uint64 `json:"wp_next,omitempty"`
}

var _ workload.Snapshotter = (*ReplaySource)(nil)

// CaptureSourceState implements workload.Snapshotter.
func (s *ReplaySource) CaptureSourceState() any {
	return ReplayState{
		Discarded: s.discarded,
		Wrapped:   s.wrapped,
		Served:    s.served,
		InWP:      s.inWP,
		Synth:     s.synth,
		SynthPC:   s.synthPC,
		WpNext:    s.wpNext,
	}
}

// RestoreSourceState implements workload.Snapshotter: it fast-forwards this
// freshly constructed replay (of the same trace the capture came from) to
// the captured position.
func (s *ReplaySource) RestoreSourceState(raw json.RawMessage) error {
	var st ReplayState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("trace: decoding replay state: %w", err)
	}
	if s.served != 0 || s.discarded != 0 || s.inWP {
		return fmt.Errorf("trace: restore into replay that has already served instructions")
	}
	for n := uint64(0); n < st.Discarded; n++ {
		if _, ok := s.peekAt(0); !ok {
			return fmt.Errorf("trace: restored position %d past end of stream (trace mismatch?)", st.Discarded)
		}
		s.buf = s.buf[1:]
	}
	s.discarded = st.Discarded
	s.wrapped = st.Wrapped
	s.served = st.Served
	s.inWP = st.InWP
	s.synth = st.Synth
	s.synthPC = st.SynthPC
	s.wpNext = st.WpNext
	return nil
}
