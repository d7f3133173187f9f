package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/esm"
	"groupcast/internal/netsim"
	"groupcast/internal/overlay"
	"groupcast/internal/peer"
	"groupcast/internal/protocol"
)

// paper-figures sizing: the simulator at a few thousand peers with GNP
// coordinates, several groups per figure computation.
const (
	figPeers    = 2000
	figGroups   = 6
	figSubShare = 0.1 // subscribers per group, as a share of the peers
	// figTopologiesPerSecond is how many topologies each second of
	// --seconds buys; one takes about 1 s on a 2-vCPU VM. The count
	// depends on the arguments alone, so every modelled output is the same
	// for a seed on any host and only the timings depend on its speed.
	figTopologiesPerSecond = 0.6
	figMinTopologies       = 3
	figPubRounds           = 100 // modelled publishes per tree in each topology's publish loop
	figMinSuccess          = 0.9 // subscription success the paper's Figure 12 shape needs
)

// figEnv is the simulator's set-up: underlay, attachment, GNP coordinates
// and the ESM environment.
type figEnv struct {
	uni *overlay.Universe
	env *esm.Env
	// stage timings, seconds
	generate, attach, embed, envS float64
}

func newFigEnv(seed int64) (*figEnv, error) {
	e := &figEnv{}
	ncfg := netsim.DefaultConfig()
	ncfg.Seed = seed
	t0 := time.Now()
	nw, err := netsim.Generate(ncfg)
	if err != nil {
		return nil, fmt.Errorf("underlay: %w", err)
	}
	t1 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	att, err := netsim.Attach(nw, figPeers, netsim.AccessLatencyRange, rng)
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	caps := peer.MustTable1Sampler().SampleN(figPeers, rng)
	t2 := time.Now()
	gcfg := coords.DefaultGNPConfig()
	gcfg.LearningRate = 0.5
	gcfg.Seed = seed
	points, err := coords.EmbedGNP(figPeers, func(i, j int) float64 {
		return att.Distance(netsim.PeerID(i), netsim.PeerID(j))
	}, gcfg)
	if err != nil {
		return nil, fmt.Errorf("GNP: %w", err)
	}
	t3 := time.Now()
	uni := &overlay.Universe{Caps: caps, Dist: func(i, j int) float64 { return coords.Dist(points[i], points[j]) }}
	env, err := esm.NewEnv(att, uni)
	if err != nil {
		return nil, fmt.Errorf("ESM: %w", err)
	}
	t4 := time.Now()
	e.uni, e.env = uni, env
	e.generate, e.attach, e.embed, e.envS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(),
		t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	return e, nil
}

// figGroup is one group's rendezvous and subscribers.
type figGroup struct {
	rdv  int
	subs []int
}

// cellOutcome is one (overlay, scheme) configuration summed over the groups.
type cellOutcome struct {
	adMsgs, recvRate, success, delayPenalty float64
}

// figIter is what one figure computation measured.
type figIter struct {
	wall, groupcast, plod, build, evaluate float64 // seconds
	cells                                  map[string]cellOutcome
	gc                                     *overlay.Graph
	// GroupCast SSA only: the trees, per-subscription wall times (ms) and
	// outcomes.
	trees    []*protocol.Tree
	joinMs   []float64
	joinOK   int
	subCount int
}

// figure runs the figure computation once: both overlays, SSA and NSSA
// groups on each, ESM evaluation of every tree.
func (e *figEnv) figure(seed int64, groups []figGroup) (*figIter, error) {
	it := &figIter{cells: make(map[string]cellOutcome)}
	start := time.Now()
	gc, b, err := overlay.BuildGroupCast(e.uni, overlay.DefaultBootstrapConfig(), rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		return nil, fmt.Errorf("GroupCast overlay: %w", err)
	}
	t1 := time.Now()
	pl, err := overlay.BuildPLOD(e.uni, overlay.DefaultPLODConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("PLOD overlay: %w", err)
	}
	t2 := time.Now()
	it.groupcast, it.plod, it.gc = t1.Sub(start).Seconds(), t2.Sub(t1).Seconds(), gc

	overlays := []struct {
		name   string
		g      *overlay.Graph
		levels protocol.ResourceLevels
	}{{"groupcast", gc, b.ResourceLevel}, {"plod", pl, protocol.ExactLevels(e.uni)}}
	for _, ov := range overlays {
		for _, scheme := range []protocol.Scheme{protocol.SSA, protocol.NSSA} {
			acfg := protocol.DefaultAdvertiseConfig()
			acfg.Scheme = scheme
			key := ov.name + "/" + scheme.String()
			var cell cellOutcome
			for gi, grp := range groups {
				rng := rand.New(rand.NewSource(seed*100 + int64(gi)))
				tb := time.Now()
				tree, adv, results, err := buildGroup(ov.g, grp, ov.levels, acfg, rng, it, key == "groupcast/SSA")
				if err != nil {
					return nil, fmt.Errorf("%s group %d: %w", key, gi, err)
				}
				te := time.Now()
				m, err := e.env.Evaluate(tree, grp.rdv)
				if err != nil {
					return nil, fmt.Errorf("%s group %d: evaluate: %w", key, gi, err)
				}
				it.build += te.Sub(tb).Seconds()
				it.evaluate += time.Since(te).Seconds()
				ok := 0
				for _, r := range results {
					if r.OK {
						ok++
					}
				}
				cell.adMsgs += float64(adv.Messages)
				cell.recvRate += float64(adv.NumReceived()) / float64(len(ov.g.AlivePeers()))
				cell.success += float64(ok) / float64(len(results))
				cell.delayPenalty += m.DelayPenalty
				if key == "groupcast/SSA" {
					it.trees = append(it.trees, tree)
				}
			}
			n := float64(len(groups))
			it.cells[key] = cellOutcome{cell.adMsgs / n, cell.recvRate / n, cell.success / n, cell.delayPenalty / n}
		}
	}
	it.wall = time.Since(start).Seconds()
	return it, nil
}

// buildGroup is protocol.BuildGroup; for the timed configuration it runs
// the same advertise-then-subscribe sequence itself so every subscription
// (the simulator's join) is timed on its own.
func buildGroup(g *overlay.Graph, grp figGroup, levels protocol.ResourceLevels,
	acfg protocol.AdvertiseConfig, rng *rand.Rand, it *figIter, timeJoins bool,
) (*protocol.Tree, *protocol.Advertisement, []protocol.SubscribeResult, error) {
	scfg := protocol.DefaultSubscribeConfig()
	if !timeJoins {
		return protocol.BuildGroup(g, grp.rdv, grp.subs, levels, acfg, scfg, rng, nil)
	}
	adv, err := protocol.Advertise(g, grp.rdv, levels, acfg, rng, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	tree := protocol.NewTree(grp.rdv)
	results := make([]protocol.SubscribeResult, 0, len(grp.subs))
	for _, s := range grp.subs {
		t0 := time.Now()
		r := protocol.Subscribe(g, adv, tree, s, scfg, nil)
		it.joinMs = append(it.joinMs, ms(time.Since(t0)))
		it.subCount++
		if r.OK {
			it.joinOK++
		}
		results = append(results, r)
	}
	return tree, adv, results, nil
}

// checkFigures is the paper-figures oracle: the orderings the repository's
// tests pin on the paper's figures, over cells averaged across the run's
// topologies and groups.
func checkFigures(cells map[string]cellOutcome) []string {
	var v []string
	gs, gn := cells["groupcast/SSA"], cells["groupcast/NSSA"]
	ps, pn := cells["plod/SSA"], cells["plod/NSSA"]
	if gs.adMsgs >= gn.adMsgs || ps.adMsgs >= pn.adMsgs {
		v = append(v, fmt.Sprintf("figure 11: SSA sends no fewer advertisements than NSSA (groupcast %.0f vs %.0f, plod %.0f vs %.0f)",
			gs.adMsgs, gn.adMsgs, ps.adMsgs, pn.adMsgs))
	}
	if gs.success < figMinSuccess {
		v = append(v, fmt.Sprintf("figure 12: GroupCast SSA subscription success %.3f < %.2f", gs.success, figMinSuccess))
	}
	if gs.recvRate <= ps.recvRate {
		v = append(v, fmt.Sprintf("figure 12: GroupCast SSA receiving rate %.3f not above random power-law %.3f",
			gs.recvRate, ps.recvRate))
	}
	if gs.delayPenalty >= ps.delayPenalty {
		v = append(v, fmt.Sprintf("figure 14: GroupCast SSA delay penalty %.3f not below random power-law %.3f",
			gs.delayPenalty, ps.delayPenalty))
	}
	return v
}

// newFigGroups draws the groups of one topology: a rendezvous and
// figSubShare of the peers as subscribers each.
func newFigGroups(seed int64) []figGroup {
	rng := rand.New(rand.NewSource(seed))
	groups := make([]figGroup, figGroups)
	nSubs := int(figSubShare * figPeers)
	for i := range groups {
		perm := rng.Perm(figPeers)
		groups[i] = figGroup{rdv: perm[0], subs: perm[1 : 1+nSubs]}
	}
	return groups
}

// runFigures is the paper-figures workload. For each of a fixed number of
// topologies (figTopologiesPerSecond) it sets up a fresh underlay from its
// own sub-seed, runs the figure computation on it and then the modelled
// publish loop over its GroupCast SSA trees. Times are medians and modelled
// delays are pooled over many topologies rather than one draw.
func runFigures(seed int64, seconds float64, traced bool) (*result, []string, error) {
	res := newResult(traced)
	var setups, gens, atts, embeds, envs []float64
	var walls, gcs, plods, builds, evals, joinMs, delays, pubRates []float64
	cells := make(map[string]cellOutcome)
	var pubCPU time.Duration
	joinOK, subCount, reached, subs, pubs, deliveries := 0, 0, 0, 0, 0, 0
	topologies := max(figMinTopologies, int(math.Round(seconds*figTopologiesPerSecond)))
	for t := 0; t < topologies; t++ {
		sub := seed*1000 + int64(t)
		t0 := time.Now()
		e, err := newFigEnv(sub)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens, atts = append(gens, e.generate), append(atts, e.attach)
		embeds, envs = append(embeds, e.embed), append(envs, e.envS)

		groups := newFigGroups(sub)
		it, err := e.figure(sub, groups)
		if err != nil {
			return nil, nil, err
		}
		walls, gcs, plods = append(walls, it.wall), append(gcs, it.groupcast), append(plods, it.plod)
		builds, evals = append(builds, it.build), append(evals, it.evaluate)
		joinMs = append(joinMs, it.joinMs...)
		joinOK += it.joinOK
		subCount += it.subCount
		for key, c := range it.cells {
			sum := cells[key]
			cells[key] = cellOutcome{sum.adMsgs + c.adMsgs, sum.recvRate + c.recvRate,
				sum.success + c.success, sum.delayPenalty + c.delayPenalty}
		}
		// The modelled data path: payloads from each rendezvous over its
		// GroupCast SSA tree. Delays are the protocol's latency estimates
		// along tree paths; the loop's rate is the simulator's
		// dissemination throughput.
		for gi, tree := range it.trees {
			r, err := protocol.Publish(it.gc, tree, groups[gi].rdv, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("publish: %w", err)
			}
			for _, d := range r.Delays {
				delays = append(delays, d)
			}
			reached += len(r.Delays)
			subs += len(groups[gi].subs)
		}
		cpu0, t1 := cpuTime(), time.Now()
		for i := 0; i < figPubRounds*len(it.trees); i++ {
			gi := i % len(it.trees)
			r, err := protocol.Publish(it.gc, it.trees[gi], groups[gi].rdv, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("publish: %w", err)
			}
			deliveries += len(r.Delays)
		}
		pubRates = append(pubRates, float64(figPubRounds*len(it.trees))/time.Since(t1).Seconds())
		pubCPU += cpuTime() - cpu0
		pubs += figPubRounds * len(it.trees)
		fmt.Fprintf(os.Stderr, "topology %d: %.2f s\n", t, time.Since(t0).Seconds())
		// The next topology starts from a collected heap, so peak memory
		// does not depend on collection timing.
		runtime.GC()
	}
	for key, c := range cells {
		n := float64(topologies)
		cells[key] = cellOutcome{c.adMsgs / n, c.recvRate / n, c.success / n, c.delayPenalty / n}
	}
	violations := checkFigures(cells)

	p50, err := percentile(append([]float64(nil), delays...), 0.5)
	if err != nil {
		return nil, nil, fmt.Errorf("deliver_p50_ms: %w", err)
	}
	p99, err := percentile(delays, 0.99)
	if err != nil {
		return nil, nil, fmt.Errorf("bench.deliver_p99_ms: %w", err)
	}
	j50, err := percentile(append([]float64(nil), joinMs...), 0.5)
	if err != nil {
		return nil, nil, fmt.Errorf("join_p50_ms: %w", err)
	}
	j90, err := percentile(joinMs, 0.9)
	if err != nil {
		return nil, nil, fmt.Errorf("join_p90_ms: %w", err)
	}
	if traced {
		res.set("netsim.generate_s", median(gens))
		res.set("netsim.attach_s", median(atts))
		res.set("coords.embed_s", median(embeds))
		res.set("esm.env_s", median(envs))
		res.set("overlay.groupcast_s", median(gcs))
		res.set("overlay.plod_s", median(plods))
		res.set("protocol.build_group_s", median(builds))
		res.set("esm.evaluate_s", median(evals))
		res.set("protocol.ad_msgs_per_group", cells["groupcast/SSA"].adMsgs)
		res.set("bench.deliver_samples", float64(len(delays)))
		res.set("bench.deliver_p99_ms", p99)
		res.set("bench.deliver_p99_pooled_ms", p99)
	} else {
		res.set("setup_s", median(setups))
		res.set("deliver_p50_ms", p50)
		res.set("delivery_ratio", ratio(float64(reached), float64(subs)))
		res.set("capacity_pub_s", median(pubRates))
		res.set("cpu_us_per_delivery", ratio(float64(pubCPU)/float64(time.Microsecond), float64(deliveries)))
		res.set("join_p50_ms", j50)
		res.set("join_p90_ms", j90)
		res.set("join_ok_ratio", ratio(float64(joinOK), float64(subCount)))
		res.set("sim_wall_s", median(walls))
		res.set("peak_rss_MB", peakRSSMB())
	}
	// Operations: every subscription, every subscriber owed the first
	// publish over its group's tree, and every modelled publish. A failed
	// subscription and a subscriber the tree never reaches fail.
	res.Correct = len(violations) == 0
	res.Attempted = subCount + subs + pubs
	res.Failed = (subCount - joinOK) + (subs - reached)
	return res, violations, nil
}
