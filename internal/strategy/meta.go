package strategy

// The adaptive meta-strategy: the paper's core claim is that prediction
// must adapt as communication regimes shift, and the strategy registry
// makes an ensemble cheap — so "meta" wraps every registered strategy
// (or an explicit subset), feeds each expert every observation, scores
// each expert online against the realized arrivals, and routes every
// prediction to the current winner. The result is a self-tuning default:
// a session that starts periodic and turns bursty migrates from the DPD
// to whichever expert is currently right, without anyone redeploying.
//
// Scoring follows the evaluation harness's protocol exactly (settle on
// arrival): before each observation every expert is asked for its +1..+H
// forecasts; the prediction for +k made before observing element i
// refers to element i+k-1 and is a hit when it equals that element, with
// abstentions counting as misses. Outcomes land in a rolling window of W
// scored targets per (expert, horizon); an expert's weight is its total
// windowed hit count across horizons — a discretized hedge/regret score:
// the weight difference between two experts is exactly their windowed
// regret against each other. The router follows the weight leader with a
// switch margin (hysteresis), so single-event flukes cannot thrash the
// route.
//
// Everything is integer arithmetic over fixed rings, which is what makes
// the snapshot exact: Snapshot serializes the per-expert payloads, the
// pending-prediction ring, and the outcome windows, and a restored meta
// predicts, scores and switches exactly like the one that was
// snapshotted, byte-for-byte (the property the serving layer's
// warm-restart contract needs).

import (
	"fmt"
	"math"
	"strings"

	"mpipredict/internal/core"
)

const (
	// MetaName is the registry name of the adaptive meta-strategy.
	MetaName = "meta"
	// MetaHorizons is the number of horizons the meta-strategy scores its
	// experts on — the paper's +1..+5 evaluation protocol.
	MetaHorizons = 5
	// MetaWindow is the rolling outcome window per (expert, horizon): the
	// number of most recent scored targets a weight is computed over.
	// Small enough to track a regime shift within tens of events, large
	// enough that one noisy burst cannot hand the route to a fluke.
	MetaWindow = 64
	// MetaSwitchMargin is the windowed-hit lead a challenger needs over
	// the current leader before the route switches (hysteresis).
	MetaSwitchMargin = 3

	// metaMaxExperts bounds the expert count accepted from a payload.
	metaMaxExperts = 16
	// metaMaxWindow and metaMaxHorizons bound the ring geometry accepted
	// from a payload, so a corrupt length cannot force a huge allocation.
	metaMaxWindow   = 1 << 16
	metaMaxHorizons = 64
	// metaMaxNameLen bounds an expert name read from a payload.
	metaMaxNameLen = 64
)

// ExpertScore is one expert's rolling scorecard: windowed hits and scored
// targets (summed across horizons, so Rate = Hits/Scored), plus the
// per-horizon hit rates. Integer Hits/Scored let callers aggregate rates
// across many meta instances exactly.
type ExpertScore struct {
	Name       string    `json:"name"`
	Hits       int       `json:"hits"`
	Scored     int       `json:"scored"`
	Rate       float64   `json:"rate"`
	PerHorizon []float64 `json:"per_horizon,omitempty"`
}

// RouteInfo is the meta-strategy's telemetry view: who currently gets the
// predictions, how often the route has switched, and every expert's
// rolling scorecard. The serving layer surfaces it per session and
// aggregates it across sessions on /debug/vars.
type RouteInfo struct {
	Leader   string        `json:"leader"`
	Switches int64         `json:"switches"`
	Window   int           `json:"window"`
	Experts  []ExpertScore `json:"experts"`
}

// RouteReporter is implemented by strategies that route predictions among
// inner expert strategies (the meta strategy). Telemetry surfaces use it
// the way StateReporter and PeriodReporter are used: optionally.
type RouteReporter interface {
	RouteInfo() RouteInfo
}

// Meta is the adaptive meta-strategy. See the package comment above for
// the scoring and routing model; DESIGN.md §8 specifies the snapshot
// layout.
type Meta struct {
	experts []Strategy
	names   []string

	horizons int
	window   int
	margin   int

	t        int64 // observations so far
	leader   int   // index of the expert predictions route to
	switches int64

	// Pending-prediction ring: horizons slots × experts × horizons. The
	// slot for target index τ is τ % horizons; its (e, k) entry was
	// written by expert e's Predict(k) at observation τ-k+1 and is scored
	// (and the slot recycled) when element τ arrives.
	predVal []int64
	predOK  []bool

	// Outcome windows: window outcomes (1 = hit) per (expert, horizon),
	// oldest overwritten; hits caches each window's sum and score each
	// expert's cross-horizon total, so electing a leader never rescans.
	outcomes []byte
	hits     []int32
	score    []int32
}

// NewMeta returns a meta-strategy over the named experts, each built from
// the registry with the given core configuration. A nil or empty experts
// list selects every registered strategy except meta itself, in sorted
// registry order. It fails on unknown or duplicate names, and on "meta"
// itself (the router does not nest).
func NewMeta(cfg core.Config, experts []string) (*Meta, error) {
	if len(experts) == 0 {
		for _, name := range Names() {
			if name != MetaName {
				experts = append(experts, name)
			}
		}
	}
	if len(experts) == 0 {
		return nil, fmt.Errorf("strategy: meta has no experts to wrap")
	}
	if len(experts) > metaMaxExperts {
		return nil, fmt.Errorf("strategy: meta over %d experts exceeds the limit %d", len(experts), metaMaxExperts)
	}
	m := &Meta{
		names:    make([]string, 0, len(experts)),
		experts:  make([]Strategy, 0, len(experts)),
		horizons: MetaHorizons,
		window:   MetaWindow,
		margin:   MetaSwitchMargin,
	}
	seen := make(map[string]bool, len(experts))
	for _, name := range experts {
		if name == MetaName {
			return nil, fmt.Errorf("strategy: meta cannot wrap itself")
		}
		if seen[name] {
			return nil, fmt.Errorf("strategy: duplicate meta expert %q", name)
		}
		seen[name] = true
		s, err := New(name, cfg)
		if err != nil {
			return nil, err
		}
		m.names = append(m.names, name)
		m.experts = append(m.experts, s)
	}
	m.alloc()
	return m, nil
}

// alloc sizes the rings for the current (experts, horizons, window)
// geometry and zeroes the rolling state.
func (m *Meta) alloc() {
	e, h, w := len(m.experts), m.horizons, m.window
	m.predVal = make([]int64, h*e*h)
	m.predOK = make([]bool, h*e*h)
	m.outcomes = make([]byte, e*h*w)
	m.hits = make([]int32, e*h)
	m.score = make([]int32, e)
	m.t = 0
	m.leader = 0
	m.switches = 0
}

// Desc implements Strategy.
func (m *Meta) Desc() Desc {
	return Desc{
		Name:   MetaName,
		Config: fmt.Sprintf("experts=%s window=%d margin=%d horizons=%d", strings.Join(m.names, "+"), m.window, m.margin, m.horizons),
	}
}

// predIndex addresses the pending-prediction ring.
func (m *Meta) predIndex(slot, e, k int) int {
	return (slot*len(m.experts)+e)*m.horizons + k - 1
}

// push appends one outcome to the (e, k) window, retiring the outcome it
// displaces from the cached sums. scored is how many targets horizon k
// had scored before this one.
func (m *Meta) push(e, k int, scored int64, hit byte) {
	pos := int(scored % int64(m.window))
	idx := (e*m.horizons+k-1)*m.window + pos
	if scored >= int64(m.window) {
		old := int32(m.outcomes[idx])
		m.hits[e*m.horizons+k-1] -= old
		m.score[e] -= old
	}
	m.outcomes[idx] = hit
	m.hits[e*m.horizons+k-1] += int32(hit)
	m.score[e] += int32(hit)
}

// elect re-evaluates the route after a scoring step: the challenger with
// the highest weight (lowest index on ties) takes over only when it leads
// the current leader by more than the switch margin.
func (m *Meta) elect() {
	best := 0
	for e := 1; e < len(m.score); e++ {
		if m.score[e] > m.score[best] {
			best = e
		}
	}
	if best != m.leader && m.score[best] > m.score[m.leader]+int32(m.margin) {
		m.leader = best
		m.switches++
	}
}

// Observe implements Strategy: record every expert's +1..+H forecasts,
// settle the forecasts that targeted this arrival, re-elect the leader,
// and feed the observation to every expert. Steady state performs zero
// heap allocations (pinned by alloc_test.go): the rings are fixed and
// every expert's Observe/Predict is itself allocation-free.
func (m *Meta) Observe(x int64) {
	t, h := m.t, m.horizons
	for e, s := range m.experts {
		for k := 1; k <= h; k++ {
			v, ok := s.Predict(k)
			i := m.predIndex(int((t+int64(k)-1)%int64(h)), e, k)
			m.predVal[i] = v
			m.predOK[i] = ok
		}
	}
	slot := int(t % int64(h))
	for e := range m.experts {
		for k := 1; k <= h; k++ {
			scored := t - int64(k-1)
			if scored < 0 {
				// The +k forecast for this target would predate the
				// stream; nothing was recorded.
				continue
			}
			i := m.predIndex(slot, e, k)
			var hit byte
			if m.predOK[i] && m.predVal[i] == x {
				hit = 1
			}
			m.push(e, k, scored, hit)
		}
	}
	m.elect()
	for _, s := range m.experts {
		s.Observe(x)
	}
	m.t++
}

// Predict implements Strategy: the current leader answers.
func (m *Meta) Predict(k int) (int64, bool) {
	return m.experts[m.leader].Predict(k)
}

// PredictSeriesInto implements Strategy, delegating to the leader so the
// routed path keeps the expert's own buffer-reuse guarantees.
func (m *Meta) PredictSeriesInto(dst []core.Prediction, count int) []core.Prediction {
	return m.experts[m.leader].PredictSeriesInto(dst, count)
}

// PredictSetInto implements Strategy.
func (m *Meta) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	return m.experts[m.leader].PredictSetInto(dst, count)
}

// Reset implements Strategy.
func (m *Meta) Reset() {
	for _, s := range m.experts {
		s.Reset()
	}
	m.alloc()
}

// scoredFor returns how many targets horizon k has scored so far, capped
// at the window (the divisor of every windowed rate).
func (m *Meta) scoredFor(k int) int {
	s := m.t - int64(k-1)
	if s < 0 {
		s = 0
	}
	if s > int64(m.window) {
		s = int64(m.window)
	}
	return int(s)
}

// RouteInfo implements RouteReporter.
func (m *Meta) RouteInfo() RouteInfo {
	info := RouteInfo{
		Leader:   m.names[m.leader],
		Switches: m.switches,
		Window:   m.window,
		Experts:  make([]ExpertScore, len(m.experts)),
	}
	for e := range m.experts {
		sc := ExpertScore{Name: m.names[e], PerHorizon: make([]float64, m.horizons)}
		for k := 1; k <= m.horizons; k++ {
			scored := m.scoredFor(k)
			hits := int(m.hits[e*m.horizons+k-1])
			sc.Hits += hits
			sc.Scored += scored
			if scored > 0 {
				sc.PerHorizon[k-1] = float64(hits) / float64(scored)
			}
		}
		if sc.Scored > 0 {
			sc.Rate = float64(sc.Hits) / float64(sc.Scored)
		}
		info.Experts[e] = sc
	}
	return info
}

// PredictorState implements StateReporter: the leader's name, plus the
// leader's own discrete state when it reports one ("dpd:locked").
func (m *Meta) PredictorState() string {
	if r, ok := m.experts[m.leader].(StateReporter); ok {
		return m.names[m.leader] + ":" + r.PredictorState()
	}
	return m.names[m.leader]
}

// PredictorPeriod implements PeriodReporter, delegating to the leader.
func (m *Meta) PredictorPeriod() (int, bool) {
	if r, ok := m.experts[m.leader].(PeriodReporter); ok {
		return r.PredictorPeriod()
	}
	return 0, false
}

// pendingRange returns the horizon range [lo, hi] of pending-prediction
// entries that exist for the target t+j: the +k forecast for that target
// was written at observation t+j-k+1, which must lie in [0, t-1].
func (m *Meta) pendingRange(j int) (lo, hi int) {
	lo = j + 2
	hi = m.horizons
	if max := m.t + int64(j) + 1; int64(hi) > max {
		hi = int(max)
	}
	return lo, hi
}

// Snapshot implements Strategy. Layout (DESIGN.md §8): uvarint expert
// count, then per expert a length-prefixed name and length-prefixed
// expert payload; uvarint horizons, window, margin, observation count,
// switch count and leader index; the pending-prediction entries in
// canonical (target offset, expert, horizon) order — one 0/1 ok byte and
// a varint value (0 when abstaining) per entry, with the entry set fully
// determined by the observation count; and the outcome windows, oldest
// first, one 0/1 byte per outcome. Every field is keyed by construction
// order and ring phase is normalized away, so equal states always
// produce equal bytes.
func (m *Meta) Snapshot() []byte {
	var w payloadWriter
	w.uvarint(uint64(len(m.experts)))
	for i, name := range m.names {
		w.uvarint(uint64(len(name)))
		w.buf = append(w.buf, name...)
		p := m.experts[i].Snapshot()
		w.uvarint(uint64(len(p)))
		w.buf = append(w.buf, p...)
	}
	w.uvarint(uint64(m.horizons))
	w.uvarint(uint64(m.window))
	w.uvarint(uint64(m.margin))
	w.uvarint(uint64(m.t))
	w.uvarint(uint64(m.switches))
	w.uvarint(uint64(m.leader))
	for j := 0; j < m.horizons; j++ {
		slot := int((m.t + int64(j)) % int64(m.horizons))
		lo, hi := m.pendingRange(j)
		for e := range m.experts {
			for k := lo; k <= hi; k++ {
				i := m.predIndex(slot, e, k)
				if m.predOK[i] {
					w.byte(1)
					w.varint(m.predVal[i])
				} else {
					w.byte(0)
					w.varint(0)
				}
			}
		}
	}
	for e := range m.experts {
		for k := 1; k <= m.horizons; k++ {
			scored := m.t - int64(k-1)
			fill := int64(m.scoredFor(k))
			base := (e*m.horizons + k - 1) * m.window
			for i := int64(0); i < fill; i++ {
				w.byte(m.outcomes[base+int((scored-fill+i)%int64(m.window))])
			}
		}
	}
	return w.buf
}

// Restore implements Strategy. The payload is validated in full — the
// expert set, ring geometry and every ring byte — before any state is
// replaced; on error the strategy is unchanged. The payload's expert set
// and geometry replace this instance's wholesale, exactly like DPD
// restore replaces the predictor configuration.
func (m *Meta) Restore(payload []byte) error {
	r := &payloadReader{data: payload}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 || n > metaMaxExperts {
		return payloadErrf("meta expert count %d outside [1, %d]", n, metaMaxExperts)
	}
	names := make([]string, n)
	experts := make([]Strategy, n)
	seen := make(map[string]bool, n)
	for i := range experts {
		raw, err := r.bytes()
		if err != nil {
			return err
		}
		if len(raw) == 0 || len(raw) > metaMaxNameLen {
			return payloadErrf("meta expert %d name length %d outside [1, %d]", i, len(raw), metaMaxNameLen)
		}
		name := string(raw)
		if name == MetaName {
			return payloadErrf("meta payload nests a meta expert")
		}
		if seen[name] {
			return payloadErrf("duplicate meta expert %q", name)
		}
		seen[name] = true
		ep, err := r.bytes()
		if err != nil {
			return err
		}
		s, err := Restore(name, ep)
		if err != nil {
			return payloadErrf("meta expert %q: %v", name, err)
		}
		names[i] = name
		experts[i] = s
	}
	horizons, err := r.uvarint()
	if err != nil {
		return err
	}
	if horizons == 0 || horizons > metaMaxHorizons {
		return payloadErrf("meta horizons %d outside [1, %d]", horizons, metaMaxHorizons)
	}
	window, err := r.uvarint()
	if err != nil {
		return err
	}
	if window == 0 || window > metaMaxWindow {
		return payloadErrf("meta window %d outside [1, %d]", window, metaMaxWindow)
	}
	margin, err := r.uvarint()
	if err != nil {
		return err
	}
	if margin > uint64(horizons*window) {
		return payloadErrf("meta margin %d exceeds the maximum weight %d", margin, horizons*window)
	}
	t, err := r.uvarint()
	if err != nil {
		return err
	}
	if t > math.MaxInt64 {
		return payloadErrf("meta observation count %d overflows", t)
	}
	switches, err := r.uvarint()
	if err != nil {
		return err
	}
	if switches > math.MaxInt64 {
		return payloadErrf("meta switch count %d overflows", switches)
	}
	leader, err := r.uvarint()
	if err != nil {
		return err
	}
	if leader >= n {
		return payloadErrf("meta leader index %d of %d experts", leader, n)
	}
	restored := &Meta{
		names:    names,
		experts:  experts,
		horizons: int(horizons),
		window:   int(window),
		margin:   int(margin),
	}
	restored.alloc()
	restored.t = int64(t)
	restored.switches = int64(switches)
	restored.leader = int(leader)
	for j := 0; j < restored.horizons; j++ {
		slot := int((restored.t + int64(j)) % int64(restored.horizons))
		lo, hi := restored.pendingRange(j)
		for e := range restored.experts {
			for k := lo; k <= hi; k++ {
				ok, err := r.byte()
				if err != nil {
					return err
				}
				if ok > 1 {
					return payloadErrf("meta pending entry flag 0x%02x", ok)
				}
				v, err := r.varint()
				if err != nil {
					return err
				}
				if ok == 0 && v != 0 {
					return payloadErrf("meta abstaining pending entry carries value %d", v)
				}
				i := restored.predIndex(slot, e, k)
				restored.predOK[i] = ok == 1
				restored.predVal[i] = v
			}
		}
	}
	for e := range restored.experts {
		for k := 1; k <= restored.horizons; k++ {
			scored := restored.t - int64(k-1)
			fill := int64(restored.scoredFor(k))
			base := (e*restored.horizons + k - 1) * restored.window
			for i := int64(0); i < fill; i++ {
				b, err := r.byte()
				if err != nil {
					return err
				}
				if b > 1 {
					return payloadErrf("meta outcome byte 0x%02x", b)
				}
				restored.outcomes[base+int((scored-fill+i)%int64(restored.window))] = b
				restored.hits[e*restored.horizons+k-1] += int32(b)
				restored.score[e] += int32(b)
			}
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	*m = *restored
	return nil
}
