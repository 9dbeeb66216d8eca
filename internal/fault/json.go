package fault

import (
	"bytes"
	"encoding/json"
	"fmt"

	"safetynet/internal/sim"
	"safetynet/internal/topology"
)

// Stable kind tags of the JSON encoding. Every Event marshals to an
// object carrying one of these under "kind"; the remaining fields are the
// event's parameters. The tags are part of the scenario-file format and
// must never change meaning.
const (
	KindDropOnce      = "drop-once"
	KindDropEvery     = "drop-every"
	KindCorruptOnce   = "corrupt-once"
	KindMisrouteOnce  = "misroute-once"
	KindDuplicateOnce = "duplicate-once"
	KindKillSwitch    = "kill-switch"
)

// Kinds lists the known fault-event kind tags.
func Kinds() []string { return append([]string(nil), kindNames[:]...) }

// UnknownKindError reports a fault-plan entry whose "kind" tag names no
// known event type. Callers test with errors.As.
type UnknownKindError struct {
	Kind string
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("unknown fault kind %q (have %v)", e.Kind, Kinds())
}

// Per-kind wire shapes. Decoding is strict (unknown fields are rejected),
// so an encoded plan is a fixed point: decode→encode→decode cannot drift.
type wireAt struct {
	Kind string `json:"kind"`
	At   uint64 `json:"at"`
}

type wireEvery struct {
	Kind   string `json:"kind"`
	Start  uint64 `json:"start"`
	Period uint64 `json:"period"`
}

type wireKill struct {
	Kind string `json:"kind"`
	Node int    `json:"node"`
	Axis string `json:"axis"`
	At   uint64 `json:"at"`
}

const (
	axisEW = "ew"
	axisNS = "ns"
)

func axisName(a topology.Axis) string {
	if a == topology.NS {
		return axisNS
	}
	return axisEW
}

// MarshalEvent encodes one event in the kind-tagged wire form.
func MarshalEvent(ev Event) ([]byte, error) {
	switch e := ev.(type) {
	case DropOnce:
		return json.Marshal(wireAt{Kind: KindDropOnce, At: uint64(e.At)})
	case DropEvery:
		return json.Marshal(wireEvery{Kind: KindDropEvery, Start: uint64(e.Start), Period: uint64(e.Period)})
	case CorruptOnce:
		return json.Marshal(wireAt{Kind: KindCorruptOnce, At: uint64(e.At)})
	case MisrouteOnce:
		return json.Marshal(wireAt{Kind: KindMisrouteOnce, At: uint64(e.At)})
	case DuplicateOnce:
		return json.Marshal(wireAt{Kind: KindDuplicateOnce, At: uint64(e.At)})
	case KillSwitch:
		return json.Marshal(wireKill{Kind: KindKillSwitch, Node: e.Node, Axis: axisName(e.Axis), At: uint64(e.At)})
	}
	return nil, fmt.Errorf("fault: event type %T has no JSON encoding", ev)
}

// strictUnmarshal decodes into v rejecting unknown fields.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// UnmarshalEvent decodes one kind-tagged event. A tag naming no known
// event type fails with *UnknownKindError; a known kind with stray or
// malformed fields fails with a decoding error.
func UnmarshalEvent(data []byte) (Event, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	switch probe.Kind {
	case KindDropOnce, KindCorruptOnce, KindMisrouteOnce, KindDuplicateOnce:
		var w wireAt
		if err := strictUnmarshal(data, &w); err != nil {
			return nil, err
		}
		at := sim.Time(w.At)
		switch probe.Kind {
		case KindDropOnce:
			return DropOnce{At: at}, nil
		case KindCorruptOnce:
			return CorruptOnce{At: at}, nil
		case KindMisrouteOnce:
			return MisrouteOnce{At: at}, nil
		default:
			return DuplicateOnce{At: at}, nil
		}
	case KindDropEvery:
		var w wireEvery
		if err := strictUnmarshal(data, &w); err != nil {
			return nil, err
		}
		return DropEvery{Start: sim.Time(w.Start), Period: sim.Time(w.Period)}, nil
	case KindKillSwitch:
		var w wireKill
		if err := strictUnmarshal(data, &w); err != nil {
			return nil, err
		}
		var axis topology.Axis
		switch w.Axis {
		case axisEW:
			axis = topology.EW
		case axisNS:
			axis = topology.NS
		default:
			return nil, fmt.Errorf("fault: kill-switch axis must be %q or %q, got %q", axisEW, axisNS, w.Axis)
		}
		return KillSwitch{Node: w.Node, Axis: axis, At: sim.Time(w.At)}, nil
	}
	return nil, &UnknownKindError{Kind: probe.Kind}
}

// MarshalJSON encodes the plan as an array of kind-tagged events; the
// fault-free plan encodes as [].
func (p Plan) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, ev := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		enc, err := MarshalEvent(ev)
		if err != nil {
			return nil, fmt.Errorf("fault plan event %d: %w", i, err)
		}
		b.Write(enc)
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes an array of kind-tagged events. An entry with an
// unknown "kind" fails with a wrapped *UnknownKindError.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	plan := make(Plan, 0, len(raw))
	for i, r := range raw {
		ev, err := UnmarshalEvent(r)
		if err != nil {
			return fmt.Errorf("fault plan event %d: %w", i, err)
		}
		plan = append(plan, ev)
	}
	*p = plan
	return nil
}
