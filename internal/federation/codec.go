package federation

import (
	"encoding/json"
	"fmt"
)

// EncodeHandoff renders one handoff as a single wire frame.
func EncodeHandoff(h *Handoff) ([]byte, error) {
	payload, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("federation: encode handoff: %w", err)
	}
	return appendFrame(make([]byte, 0, frameHeader+len(payload)+frameTrailer), payload), nil
}

// DecodeHandoff parses exactly one framed handoff. Trailing bytes after
// the frame are an error — a single-handoff body is a single frame.
func DecodeHandoff(b []byte) (*Handoff, error) {
	payload, rest, err := readFrame(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("federation: %d trailing bytes after handoff frame", len(rest))
	}
	var h Handoff
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("federation: bad handoff payload: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}
