package core

import (
	"fmt"
	"qgov/internal/governor"
	"qgov/internal/predictor"
	"qgov/internal/xrand"
)

// The paper closes with: "Our future work is investigating how to extend
// this approach to manage the energy consumption of multiple concurrently
// executing applications." MultiRTM is that extension, built from the same
// parts as the single-application RTM:
//
//   - each application keeps its own EWMA workload predictor and its own
//     average-slack tracker (per-app Tref can differ);
//   - the Q-table state combines the *binding* application's predicted
//     workload level with the *minimum* slack level across applications —
//     the cluster has one V-F lever, so the application closest to missing
//     its deadline is the one the action must serve;
//   - the reward is the *binding* application's pay-off (Eq. 4 evaluated
//     for the app with the least slack). Scoring the loose applications'
//     inevitable surplus slack would punish every feasible operating
//     point — with one V-F lever their slack cannot be traded away — and
//     push all Q-values below the initial value, so nothing would ever
//     look learnt. An application about to miss its deadline has the
//     least slack and therefore *is* the binding one, so no deadline is
//     ever sacrificed by this choice.
//
// MultiRTM does not implement governor.Governor — it needs per-application
// observations the single-app engine cannot provide — so the multi-app
// experiment drives it through DecideMulti.
type MultiRTM struct {
	cfg   Config
	space *StateSpace

	table    *QTable
	greedy   []int // sticky greedy choice per state
	rng      *xrand.Rand
	preds    []*predictor.EWMA // one per application (critical thread)
	slacks   []*SlackTracker
	tracker  *governor.ConvergenceTracker
	normFreq []float64
	nApps    int

	prevState    int
	prevAction   int
	epoch        int
	explorations int
	calibrated   bool
	ccSeen       bool
}

// AppObservation reports one application's share of a completed epoch.
type AppObservation struct {
	// ExecTimeS is the completion time of this application's slowest
	// thread, including the epoch's management overhead.
	ExecTimeS float64
	// PeriodS is this application's own deadline Tref.
	PeriodS float64
	// CriticalCycles is the largest per-thread cycle demand this
	// application exercised during the epoch.
	CriticalCycles uint64
}

// MultiObservation reports a completed epoch for all applications.
type MultiObservation struct {
	Epoch int
	Apps  []AppObservation
}

// NewMultiRTM builds the controller for nApps concurrently executing
// applications.
func NewMultiRTM(cfg Config, nApps int) *MultiRTM {
	if nApps < 1 {
		panic(fmt.Sprintf("core: MultiRTM needs at least one app, got %d", nApps))
	}
	if cfg.Reward == nil || cfg.Policy == nil || cfg.Epsilon == nil {
		panic("core: MultiRTM config missing Reward/Policy/Epsilon (use DefaultConfig)")
	}
	return &MultiRTM{cfg: cfg, space: NewStateSpace(cfg.Levels), nApps: nApps}
}

// Calibrate sets the workload range from the concatenated
// pre-characterisation series of all applications' critical-path demands.
func (m *MultiRTM) Calibrate(cycleCounts []float64) error {
	if err := m.space.Calibrate(cycleCounts); err != nil {
		return err
	}
	m.calibrated = true
	return nil
}

// Reset prepares the controller for a run on the given platform context.
func (m *MultiRTM) Reset(ctx governor.Context) {
	m.rng = xrand.New(ctx.Seed)
	m.table = NewQTable(m.space.NumStates(), ctx.Table.Len(), m.cfg.InitQ)
	m.greedy = make([]int, m.space.NumStates())
	m.preds = make([]*predictor.EWMA, m.nApps)
	m.slacks = make([]*SlackTracker, m.nApps)
	for i := 0; i < m.nApps; i++ {
		m.preds[i] = predictor.NewEWMA(m.cfg.EWMAGamma)
		m.slacks[i] = NewSlackTracker(m.cfg.SlackWindow)
	}
	m.cfg.Epsilon.Reset()
	m.tracker = governor.NewConvergenceTracker(m.cfg.StableEpochs, m.space.NumStates())
	if ctx.NormFreq != nil {
		m.normFreq = ctx.NormFreq // shared read-only precompute
	} else {
		m.normFreq = ctx.Table.NormFreqs()
	}
	m.prevState = 0
	m.prevAction = 0
	m.epoch = 0
	m.explorations = 0
	m.ccSeen = false
}

// DecisionOverheadS mirrors the single-app RTM's per-epoch cost; tracking
// several applications samples more counters, so the cost scales mildly
// with the app count.
func (m *MultiRTM) DecisionOverheadS() float64 {
	return m.cfg.OverheadS * (1 + 0.25*float64(m.nApps-1))
}

// Explorations implements governor.LearningStats.
func (m *MultiRTM) Explorations() int { return m.explorations }

// ConvergedAtEpoch implements governor.LearningStats.
func (m *MultiRTM) ConvergedAtEpoch() int { return m.tracker.ConvergedAt() }

// SlackL returns application a's current average slack ratio.
func (m *MultiRTM) SlackL(a int) float64 { return m.slacks[a].L() }

// DecideMulti selects the cluster operating point for the next epoch given
// the per-application observations of the previous one. obs.Epoch == -1
// starts the run.
func (m *MultiRTM) DecideMulti(obs MultiObservation) int {
	if obs.Epoch < 0 {
		m.prevAction = 0
		return 0
	}
	if len(obs.Apps) != m.nApps {
		panic(fmt.Sprintf("core: MultiRTM configured for %d apps, observed %d", m.nApps, len(obs.Apps)))
	}

	// Update every application's slack tracker and predictor; the app
	// with the least instantaneous slack is the binding one this epoch.
	minSlack := 0.0
	binding := 0
	for i, app := range obs.Apps {
		m.slacks[i].Observe(app.ExecTimeS, app.PeriodS)
		inst := m.slacks[i].LastRatio()
		if i == 0 || inst < minSlack {
			minSlack = inst
			binding = i
		}
		m.preds[i].Observe(float64(app.CriticalCycles))
	}
	reward := m.cfg.Reward.Score(
		m.slacks[binding].L(), m.slacks[binding].DeltaL(), m.slacks[binding].LastRatio())
	m.autoRange(obs)

	next := m.space.StateOf(m.preds[binding].Predict(), minSlack)
	alpha := m.cfg.Alpha
	if m.cfg.AlphaDecayK > 0 {
		v := float64(m.table.Visits(m.prevState, m.prevAction))
		alpha = m.cfg.Alpha * m.cfg.AlphaDecayK / (m.cfg.AlphaDecayK + v)
	}
	// The tracker watches the unmasked argmax policy; the update moves
	// only the updated state's row, so only its entry can change.
	before := m.table.BestAction(m.prevState)
	m.table.Update(m.prevState, m.prevAction, reward, next, alpha, m.cfg.Discount)
	if m.table.BestAction(m.prevState) != before {
		m.tracker.Flip(m.prevState)
	}
	m.greedy[m.prevState] = m.table.BestActionSticky(m.prevState, m.greedy[m.prevState], m.cfg.GreedyMargin)
	m.prevState = next

	var action int
	if m.rng.Float64() < m.cfg.Epsilon.Epsilon() {
		action = m.cfg.Policy.Sample(m.rng, m.table.Actions(), minSlack, m.normFreq)
		m.explorations++
	} else {
		action = m.greedy[next]
	}

	// ε advances on the binding app's distance from the target: until the
	// worst-off application is stable, keep exploring.
	m.tracker.EndEpoch()
	m.cfg.Epsilon.Advance(m.slacks[binding].L()-m.cfg.Reward.Target, m.tracker.Quiet())
	m.epoch++
	m.prevAction = action
	return action
}

func (m *MultiRTM) autoRange(obs MultiObservation) {
	if m.calibrated {
		return
	}
	var maxCC float64
	for _, app := range obs.Apps {
		if cc := float64(app.CriticalCycles); cc > maxCC {
			maxCC = cc
		}
	}
	if maxCC <= 0 {
		return
	}
	if !m.ccSeen {
		m.space.CCMin, m.space.CCMax = maxCC*0.5, maxCC*1.5
		m.ccSeen = true
		return
	}
	if maxCC < m.space.CCMin {
		m.space.CCMin = maxCC * 0.95
	}
	if maxCC > m.space.CCMax {
		m.space.CCMax = maxCC * 1.05
	}
}
