// Package faults is WhoWas's deterministic fault-injection layer: a
// seeded wrapper around any netsim.Dialer that reproduces, on demand,
// the failure modes the paper's probes met on the live cloud (§4) —
// dropped SYNs, slow connects, mid-stream resets, stalled and
// truncated bodies, flapping hosts — plus campaign-scale episodes
// (loss ramps, regional blackouts, slow-network windows) described by
// a small JSON scenario DSL.
//
// Every fault decision is a pure function of (seed, ip, port, day,
// attempt), never of wall time or goroutine interleaving, so the same
// scenario over the same cloud yields byte-identical campaigns no
// matter how the scanner and fetcher workers race. That determinism is
// what lets the resilience logic (scanner retries, fetcher retries,
// round degradation) be tested as code: the chaos suite in
// internal/core replays whole campaigns under each scenario and
// asserts exact outcomes.
//
// Injection counts are exported through internal/metrics under the
// faults.* names, so a chaos run's -metrics report shows exactly what
// was injected next to what the pipeline recovered.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Episode kinds understood by the scenario DSL.
const (
	KindLossRamp    = "loss-ramp"    // dial loss interpolating across a day window
	KindBlackout    = "blackout"     // a region (or the whole cloud) stops answering
	KindSlowNetwork = "slow-network" // extra dial latency across a day window
)

// Episode is one campaign-scale fault window. Day bounds are inclusive
// campaign-day offsets, matching core.CampaignConfig.RoundDays.
type Episode struct {
	Kind    string `json:"kind"`
	FromDay int    `json:"from_day"`
	ToDay   int    `json:"to_day"`

	// Region limits a blackout to one cloud region (the name from the
	// cloud's RegionConfig); empty blacks out the whole cloud.
	Region string `json:"region,omitempty"`

	// StartPerMille/EndPerMille bound a loss ramp: the injected dial
	// loss interpolates linearly between them across the window.
	StartPerMille int `json:"start_per_mille,omitempty"`
	EndPerMille   int `json:"end_per_mille,omitempty"`

	// ExtraLatencyMS is a slow-network episode's added connect latency.
	ExtraLatencyMS int `json:"extra_latency_ms,omitempty"`

	// Hold makes a blackout swallow dials the way a real dropped SYN
	// does — the dial blocks until the caller's deadline — instead of
	// failing fast. Held dials are what push a round past its deadline
	// and into degraded finalization.
	Hold bool `json:"hold,omitempty"`
}

// active reports whether the episode covers the given day.
func (e *Episode) active(day int) bool { return day >= e.FromDay && day <= e.ToDay }

// rampLoss returns the interpolated per-mille loss of a loss-ramp
// episode on the given day.
func (e *Episode) rampLoss(day int) int {
	if e.FromDay == e.ToDay {
		return e.EndPerMille
	}
	frac := float64(day-e.FromDay) / float64(e.ToDay-e.FromDay)
	return e.StartPerMille + int(frac*float64(e.EndPerMille-e.StartPerMille))
}

// Scenario is one complete fault schedule: steady-state fault rates
// plus episodes. The zero Scenario injects nothing. All rates are
// per-mille (0–1000) and all decisions derive from Seed.
type Scenario struct {
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed"`

	// Dial-time faults.
	DialLossPerMille int `json:"dial_loss_per_mille,omitempty"` // steady transient dial loss
	DialLatencyMS    int `json:"dial_latency_ms,omitempty"`     // added to every successful dial
	DialJitterMS     int `json:"dial_jitter_ms,omitempty"`      // ± seeded jitter on that latency

	// Connection-stream faults, rolled once per accepted connection.
	ResetPerMille      int `json:"reset_per_mille,omitempty"`      // mid-stream reset after ResetAfterBytes
	ResetAfterBytes    int `json:"reset_after_bytes,omitempty"`    // default 256
	StallPerMille      int `json:"stall_per_mille,omitempty"`      // first read stalls for StallMS
	StallMS            int `json:"stall_ms,omitempty"`             // default 1000
	TruncatePerMille   int `json:"truncate_per_mille,omitempty"`   // body cut to an early EOF
	TruncateAfterBytes int `json:"truncate_after_bytes,omitempty"` // default 512

	// Flapping: FlapPerMille of the address space flaps — all dials to
	// a flapping IP fail during its recurring down-window. Each flappy
	// IP's window phase is seeded, so flaps are staggered like real
	// unstable hosts rather than synchronized.
	FlapPerMille   int `json:"flap_per_mille,omitempty"`
	FlapPeriodDays int `json:"flap_period_days,omitempty"` // default 4
	FlapDownDays   int `json:"flap_down_days,omitempty"`   // default 1

	Episodes []Episode `json:"episodes,omitempty"`
}

// WithDefaults resolves zero byte/duration knobs to their documented
// defaults. Rates stay as given (zero means the fault is off).
func (s Scenario) WithDefaults() Scenario {
	out := s
	if out.ResetAfterBytes <= 0 {
		out.ResetAfterBytes = 256
	}
	if out.StallMS <= 0 {
		out.StallMS = 1000
	}
	if out.TruncateAfterBytes <= 0 {
		out.TruncateAfterBytes = 512
	}
	if out.FlapPeriodDays <= 0 {
		out.FlapPeriodDays = 4
	}
	if out.FlapDownDays <= 0 {
		out.FlapDownDays = 1
	}
	return out
}

// Bounds on a scenario's durations and day windows. Each sits far
// above anything a campaign uses (scenarios/chaos.json tops out at a
// 500 ms stall and day 65) and low enough that the injector's
// arithmetic — ms × time.Millisecond, summed slow-network latencies, a
// loss ramp's day span — cannot overflow.
const (
	maxDelayMS = 3_600_000 // one hour, per field and summed over slow-network episodes
	maxDay     = 10_000    // campaign days are offsets in [0, maxDay]
)

// Validate reports scenario errors: every rate is per-mille in
// [0,1000], every duration in [0,maxDelayMS] ms, every episode day in
// [0,maxDay].
func (s *Scenario) Validate() error {
	inRange := func(name string, v, hi int) error {
		if v < 0 || v > hi {
			return fmt.Errorf("faults: %s = %d outside [0,%d]", name, v, hi)
		}
		return nil
	}
	checks := []struct {
		name string
		v    int
		hi   int
	}{
		{"dial_loss_per_mille", s.DialLossPerMille, 1000},
		{"reset_per_mille", s.ResetPerMille, 1000},
		{"stall_per_mille", s.StallPerMille, 1000},
		{"truncate_per_mille", s.TruncatePerMille, 1000},
		{"flap_per_mille", s.FlapPerMille, 1000},
		{"dial_latency_ms", s.DialLatencyMS, maxDelayMS},
		{"dial_jitter_ms", s.DialJitterMS, maxDelayMS},
		{"stall_ms", s.StallMS, maxDelayMS},
	}
	for _, c := range checks {
		if err := inRange(c.name, c.v, c.hi); err != nil {
			return err
		}
	}
	if s.DialJitterMS > 0 && s.DialJitterMS > s.DialLatencyMS {
		return fmt.Errorf("faults: dial_jitter_ms %d exceeds dial_latency_ms %d", s.DialJitterMS, s.DialLatencyMS)
	}
	if s.FlapDownDays > s.FlapPeriodDays && s.FlapPeriodDays > 0 {
		return fmt.Errorf("faults: flap_down_days %d exceeds flap_period_days %d", s.FlapDownDays, s.FlapPeriodDays)
	}
	extraMS := 0
	for i, e := range s.Episodes {
		switch e.Kind {
		case KindLossRamp:
			if err := inRange(fmt.Sprintf("episode %d start_per_mille", i), e.StartPerMille, 1000); err != nil {
				return err
			}
			if err := inRange(fmt.Sprintf("episode %d end_per_mille", i), e.EndPerMille, 1000); err != nil {
				return err
			}
		case KindBlackout:
			// Region may be empty (whole cloud); nothing else to check.
		case KindSlowNetwork:
			if err := inRange(fmt.Sprintf("episode %d extra_latency_ms", i), e.ExtraLatencyMS, maxDelayMS); err != nil {
				return err
			}
			// Overlapping episodes add up, so the bound holds for the sum.
			if extraMS += e.ExtraLatencyMS; extraMS > maxDelayMS {
				return fmt.Errorf("faults: slow-network extra_latency_ms sums to %d, over %d", extraMS, maxDelayMS)
			}
		default:
			return fmt.Errorf("faults: episode %d has unknown kind %q", i, e.Kind)
		}
		if err := inRange(fmt.Sprintf("episode %d from_day", i), e.FromDay, maxDay); err != nil {
			return err
		}
		if err := inRange(fmt.Sprintf("episode %d to_day", i), e.ToDay, maxDay); err != nil {
			return err
		}
		if e.ToDay < e.FromDay {
			return fmt.Errorf("faults: episode %d window [%d,%d] inverted", i, e.FromDay, e.ToDay)
		}
	}
	return nil
}

// LossRamp builds a loss-ramp episode: injected dial loss climbs (or
// falls) linearly from startPM to endPM per-mille across [from,to].
func LossRamp(from, to, startPM, endPM int) Episode {
	return Episode{Kind: KindLossRamp, FromDay: from, ToDay: to, StartPerMille: startPM, EndPerMille: endPM}
}

// Blackout builds a regional blackout episode over [from,to]. An empty
// region blacks out the whole cloud. hold selects dropped-SYN
// semantics (the dial blocks until its deadline) over fail-fast.
func Blackout(region string, from, to int, hold bool) Episode {
	return Episode{Kind: KindBlackout, FromDay: from, ToDay: to, Region: region, Hold: hold}
}

// SlowNetwork builds a slow-network episode adding extraMS of connect
// latency across [from,to].
func SlowNetwork(from, to, extraMS int) Episode {
	return Episode{Kind: KindSlowNetwork, FromDay: from, ToDay: to, ExtraLatencyMS: extraMS}
}

// Load parses a JSON scenario and validates it.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFlag serves the CLIs' -faults flag: an empty path is no
// scenario; otherwise the JSON scenario is read from disk and
// announced on w.
func LoadFlag(w io.Writer, path string) (*Scenario, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	fmt.Fprintf(w, "injecting faults from %s (scenario %q, seed %d)\n", path, s.Name, s.Seed)
	return s, nil
}
