package explore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"safetynet/internal/campaign"
	"safetynet/internal/runner"
	"safetynet/internal/sim"
	"safetynet/internal/stats"
)

// Options sizes one exploration execution.
type Options struct {
	// Context, when non-nil, cancels the execution (see campaign.Options).
	Context context.Context
	// Workers is the worker-pool width; zero and negative values mean
	// one worker per available CPU (runner.Workers). The report is
	// byte-identical at any worker count.
	Workers int
	// ScaleTo, when nonzero, clamps every round's horizon — including
	// full-sizing rounds — to the budget (see campaign.Scaled); the CI
	// smoke tooling uses it. It tightens, never loosens, the strategy's
	// own short-round scale_to.
	ScaleTo uint64
	// OnRun, when non-nil, streams run completions for narration. Calls
	// are serialized; completion order is scheduling-dependent, so
	// nothing derived from it may reach the report.
	OnRun func(run campaign.Run, res runner.RunResult)
}

// executor carries one execution's fixed state and its deterministic
// scheduled-run accounting.
type executor struct {
	e         *Exploration
	objs      []Objective
	ctx       context.Context
	opts      Options
	nSeeds    int
	scheduled int // runs scheduled so far
}

// budget resolves a round's horizon: the strategy budget clamped by the
// global Options.ScaleTo.
func (x *executor) budget(strategyBudget uint64) uint64 {
	b := strategyBudget
	if x.opts.ScaleTo != 0 && (b == 0 || b > x.opts.ScaleTo) {
		b = x.opts.ScaleTo
	}
	return b
}

// expand returns the space's runs at the given horizon budget (zero
// means full sizing), seeds innermost: runs[arm*nSeeds+seed].
func (x *executor) expand(budget uint64) ([]campaign.Run, error) {
	c := &x.e.Space
	if budget > 0 {
		c = c.Scaled(budget)
	}
	return c.Expand()
}

// armEval is one arm's evaluation: per-objective means in natural
// direction over the arm's executed replications, or disqualification.
type armEval struct {
	natural []float64
	runs    int // replications contributing samples
	crashed bool
}

// eval runs seeds replications of each listed arm at the given budget
// on the shared pool. An arm with a crashed run is disqualified after
// the fact and contributes no samples; every other arm's objectives sum
// in seed order, so the result is the same at any worker count.
func (x *executor) eval(armIdxs []int, seeds int, budget uint64) ([]armEval, error) {
	runs, err := x.expand(x.budget(budget))
	if err != nil {
		return nil, err
	}
	runAt := make([]campaign.Run, 0, len(armIdxs)*seeds)
	for _, a := range armIdxs {
		runAt = append(runAt, runs[a*x.nSeeds:a*x.nSeeds+seeds]...)
	}
	rcs := campaign.RunConfigs(runAt, nil)
	x.scheduled += len(rcs)

	var onDone func(int, runner.RunResult)
	if x.opts.OnRun != nil {
		onDone = func(i int, r runner.RunResult) { x.opts.OnRun(runAt[i], r) }
	}
	res, err := runner.RunAll(x.ctx, rcs, x.opts.Workers, onDone)
	if err != nil {
		return nil, err
	}
	evals := make([]armEval, len(armIdxs))
	for gi := range armIdxs {
		armRes := res[gi*seeds : (gi+1)*seeds]
		if slices.ContainsFunc(armRes, func(r runner.RunResult) bool { return r.Crashed }) {
			evals[gi] = armEval{crashed: true}
			continue
		}
		natural := make([]float64, len(x.objs))
		for _, r := range armRes {
			for oi, obj := range x.objs {
				natural[oi] += obj.Extract(r)
			}
		}
		for oi := range natural {
			natural[oi] /= float64(seeds)
		}
		evals[gi] = armEval{natural: natural, runs: seeds}
	}
	return evals, nil
}

// rankArms orders candidate arms best-first: nondominated rank
// ascending, then NSGA-II crowding distance descending within each
// rank, then arm index ascending. Crowding keeps the objective-space
// extremes of a front when a halving round must truncate inside it —
// tie-breaking on any single objective would instead discard the arms
// that are strong only on the other objectives, losing true frontier
// members. Purely value-driven, so the order is deterministic at any
// worker count.
func (x *executor) rankArms(armIdxs []int, evals []armEval) []int {
	vectors := make([][]float64, len(armIdxs))
	for i := range armIdxs {
		vectors[i] = dominanceVector(x.objs, evals[i].natural)
	}
	ranks := stats.NondominatedRanks(vectors)
	crowd := make([]float64, len(armIdxs))
	byRank := map[int][]int{}
	for i, r := range ranks {
		byRank[r] = append(byRank[r], i)
	}
	for _, members := range byRank {
		front := make([][]float64, len(members))
		for k, i := range members {
			front[k] = vectors[i]
		}
		for k, d := range stats.CrowdingDistances(front) {
			crowd[members[k]] = d
		}
	}
	order := make([]int, len(armIdxs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if ranks[order[a]] != ranks[order[b]] {
			return ranks[order[a]] < ranks[order[b]]
		}
		ca, cb := crowd[order[a]], crowd[order[b]]
		if ca != cb {
			return ca > cb
		}
		return armIdxs[order[a]] < armIdxs[order[b]]
	})
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = armIdxs[o]
	}
	return out
}

// Execute runs the exploration and reduces it into the frontier
// report. The report is deterministic for a fixed exploration (and its
// seed) at any worker count; a canceled Options.Context returns its
// error and no report.
func (e *Exploration) Execute(o Options) (*Report, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	x := &executor{e: e, objs: e.objectives(), ctx: ctx, opts: o, nSeeds: e.seedsPerArm()}

	nArms := e.Arms()
	all := make([]int, nArms)
	for i := range all {
		all[i] = i
	}

	var finals map[int]armEval // arm index -> full-sizing evaluation
	var rounds []Round
	var err error
	switch e.Strategy.Kind {
	case KindExhaustive:
		finals, rounds, err = x.exhaustive(all)
	case KindHalving:
		finals, rounds, err = x.halving(all)
	case KindBandit:
		finals, rounds, err = x.bandit(all)
	default:
		return nil, fmt.Errorf("exploration: unknown strategy kind %q", e.Strategy.Kind)
	}
	if err != nil {
		return nil, err
	}
	return x.reduce(finals, rounds)
}

// exhaustive evaluates every arm with every seed at full sizing.
func (x *executor) exhaustive(all []int) (map[int]armEval, []Round, error) {
	evals, err := x.eval(all, x.nSeeds, 0)
	if err != nil {
		return nil, nil, err
	}
	finals := make(map[int]armEval, len(all))
	for i, a := range all {
		finals[a] = evals[i]
	}
	round := Round{Phase: "full", Arms: len(all), SeedsEach: x.nSeeds,
		ScaledTo: x.budget(0), Runs: len(all) * x.nSeeds}
	return finals, []Round{round}, nil
}

// halving prunes with short rounds (scaled horizon, seed subset), then
// evaluates the finalists at full sizing. The finalists' runs are
// exactly the runs the exhaustive grid would execute for them, so
// their reported objective vectors are bit-identical to exhaustive's.
func (x *executor) halving(all []int) (map[int]armEval, []Round, error) {
	s := &x.e.Strategy
	finals := make(map[int]armEval)
	alive := all
	var rounds []Round
	for len(alive) > s.finalists() {
		evals, err := x.eval(alive, s.seedsPerRound(), s.ScaleTo)
		if err != nil {
			return nil, nil, err
		}
		round := Round{Phase: "short", Arms: len(alive), SeedsEach: s.seedsPerRound(),
			ScaledTo: x.budget(s.ScaleTo), Runs: len(alive) * s.seedsPerRound()}
		// Crashes disqualify immediately; they never reach the ranking.
		var ok []int
		var okEvals []armEval
		for i, a := range alive {
			if evals[i].crashed {
				finals[a] = evals[i]
				round.CrashedArms++
				continue
			}
			ok = append(ok, a)
			okEvals = append(okEvals, evals[i])
		}
		keep := (len(ok) + s.eta() - 1) / s.eta()
		if keep < s.finalists() {
			keep = s.finalists()
		}
		if keep > len(ok) {
			keep = len(ok)
		}
		ranked := x.rankArms(ok, okEvals)
		alive = append([]int(nil), ranked[:keep]...)
		sort.Ints(alive)
		round.Kept = len(alive)
		rounds = append(rounds, round)
		if len(ok) == 0 {
			break // every arm crashed out
		}
	}
	if len(alive) > 0 {
		evals, err := x.eval(alive, x.nSeeds, 0)
		if err != nil {
			return nil, nil, err
		}
		for i, a := range alive {
			finals[a] = evals[i]
		}
		rounds = append(rounds, Round{Phase: "full", Arms: len(alive), SeedsEach: x.nSeeds,
			ScaledTo: x.budget(0), Runs: len(alive) * x.nSeeds})
	}
	return finals, rounds, nil
}

// bandit spends a fixed pull budget one replication at a time:
// initialize every arm once (in parallel), then epsilon-greedy on the
// primary objective from a SplitMix64 stream seeded by the exploration
// seed. Arms report the mean over however many replications they
// earned.
func (x *executor) bandit(all []int) (map[int]armEval, []Round, error) {
	s := &x.e.Strategy
	runs, err := x.expand(x.budget(0))
	if err != nil {
		return nil, nil, err
	}
	budget := s.pulls(len(all))
	if budget > len(all)*x.nSeeds {
		budget = len(all) * x.nSeeds // no seed runs twice
	}

	type armState struct {
		sums    []float64
		pulls   int
		crashed bool
	}
	states := make([]armState, len(all))
	for i := range states {
		states[i].sums = make([]float64, len(x.objs))
	}
	// pull runs one replication of arm a (its next unused seed).
	pull := func(a int) error {
		st := &states[a]
		run := runs[a*x.nSeeds+st.pulls]
		rc := campaign.RunConfigs([]campaign.Run{run}, nil)[0]
		x.scheduled++
		r, err := runner.RunCtx(x.ctx, rc)
		if err != nil {
			return err
		}
		if x.opts.OnRun != nil {
			x.opts.OnRun(run, r)
		}
		if r.Crashed {
			st.crashed = true
			return nil
		}
		for oi, obj := range x.objs {
			st.sums[oi] += obj.Extract(r)
		}
		st.pulls++
		return nil
	}
	// mean primary reward in dominance direction.
	reward := func(a int) float64 {
		st := &states[a]
		if st.pulls == 0 {
			return math.Inf(-1)
		}
		v := st.sums[0] / float64(st.pulls)
		if !x.objs[0].Maximize {
			v = -v
		}
		return v
	}

	// Initialization: every arm once, in parallel on the pool.
	initArms := all
	if budget < len(all) {
		initArms = all[:budget]
	}
	evals, err := x.eval(initArms, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	for i, a := range initArms {
		if evals[i].crashed {
			states[a].crashed = true
			continue
		}
		copy(states[a].sums, evals[i].natural)
		states[a].pulls = 1
	}
	spent := len(initArms)
	rounds := []Round{{Phase: "init", Arms: len(initArms), SeedsEach: 1,
		ScaledTo: x.budget(0), Runs: len(initArms)}}

	rng := sim.NewRand(x.e.Seed)
	greedy := Round{Phase: "greedy", SeedsEach: 1, ScaledTo: x.budget(0)}
	for ; spent < budget; spent++ {
		var eligible []int
		for _, a := range all {
			if !states[a].crashed && states[a].pulls < x.nSeeds {
				eligible = append(eligible, a)
			}
		}
		if len(eligible) == 0 {
			break
		}
		// One draw per pull, consumed whether or not it explores, so the
		// stream position depends only on the pull index.
		draw := float64(rng.Uint64()>>11) / float64(1<<53)
		var a int
		if draw < s.epsilon() {
			a = eligible[rng.Intn(len(eligible))]
		} else {
			a = eligible[0]
			for _, c := range eligible[1:] {
				if reward(c) > reward(a) {
					a = c
				}
			}
		}
		if err := pull(a); err != nil {
			return nil, nil, err
		}
		greedy.Runs++
		greedy.Arms = len(all)
	}
	rounds = append(rounds, greedy)

	finals := make(map[int]armEval, len(all))
	for _, a := range all {
		st := &states[a]
		if st.crashed {
			finals[a] = armEval{crashed: true}
			continue
		}
		if st.pulls == 0 {
			continue // never evaluated (budget below arm count): pruned
		}
		natural := make([]float64, len(x.objs))
		for oi := range natural {
			natural[oi] = st.sums[oi] / float64(st.pulls)
		}
		finals[a] = armEval{natural: natural, runs: st.pulls}
	}
	return finals, rounds, nil
}
