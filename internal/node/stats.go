package node

import (
	"sync/atomic"

	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// Stats are cumulative message counters for one live node, split by
// direction and message type. All fields are monotonically increasing.
type Stats struct {
	Sent     map[string]uint64
	Received map[string]uint64
	// Delivered counts payloads handed to the application.
	Delivered uint64
	// DuplicatesDropped counts payloads and advertisements discarded by the
	// MsgID dedup filter.
	DuplicatesDropped uint64
	// Retries counts retransmission attempts (probe, join, repair) taken
	// after a timeout or send failure.
	Retries uint64
	// Suspected counts neighbours that entered the suspect state (silent
	// past 1.5 heartbeat intervals) before either recovering or dying.
	Suspected uint64
	// NeighborsDeclaredDead counts neighbours removed by the failure
	// detector after the full heartbeat grace elapsed.
	NeighborsDeclaredDead uint64
	// RepairsViaBackup counts tree reattachments that succeeded through a
	// precomputed backup access point.
	RepairsViaBackup uint64
	// RepairsViaSearch counts tree reattachments that fell back to the
	// reverse-path / ripple-search join.
	RepairsViaSearch uint64
	// SendErrors counts sends the transport failed immediately (closed
	// endpoint, unknown peer, crashed or partitioned destination). Silent
	// wire loss is not counted here — the transport cannot see it.
	SendErrors uint64
	// NacksSent counts retransmission requests this node originated for its
	// own sequence gaps; NacksForwarded counts NACKs escalated upstream on
	// behalf of another node after a local cache miss.
	NacksSent      uint64
	NacksForwarded uint64
	// Retransmits counts payloads this node re-sent from a retransmission
	// buffer in answer to a NACK.
	Retransmits uint64
	// GapsDetected / GapsRecovered / GapsAbandoned count per-source sequence
	// gaps opened by out-of-order arrival or digests, closed by a late or
	// retransmitted payload, and given up (fell off the window or exhausted
	// NACK attempts).
	GapsDetected  uint64
	GapsRecovered uint64
	GapsAbandoned uint64
	// OutOfWindow counts payloads discarded for falling below the receive
	// window (too old to track).
	OutOfWindow uint64
	// Promotions counts groups this node took over as rendezvous through
	// succession (staggered deputy timeout or explicit handoff); Demotions
	// counts rendezvous roles this node surrendered to a higher-priority
	// root after a partition heal.
	Promotions uint64
	Demotions  uint64
	// CharterReplications counts charters this rendezvous attached to deputy
	// beacons (the succession plane's overhead).
	CharterReplications uint64
	// OrphansReabsorbed counts subtree roots that re-attached under this node
	// after it promoted — the heal converging.
	OrphansReabsorbed uint64
	// OverloadEpisodes counts entries into the degraded state (overload
	// controller hysteresis flips); PublishRejects counts best-effort
	// publishes refused with ErrBackpressure while degraded; RelaySheds
	// counts best-effort payload fan-outs skipped while degraded (the
	// payload was still delivered locally).
	OverloadEpisodes uint64
	PublishRejects   uint64
	RelaySheds       uint64
	// DhtLookups counts iterative DHT lookups this node ran (joins, record
	// replication, bucket refresh); DhtFallbacks counts joins that missed
	// in the DHT and fell back to the ripple search; DhtStores counts
	// charter record replications this node originated as a rendezvous.
	DhtLookups   uint64
	DhtFallbacks uint64
	DhtStores    uint64
	// DhtRescues counts rescue re-replications: a held record re-pushed (or a
	// charter republished early) because one of its replica holders was
	// evicted from the k-closest set.
	DhtRescues uint64
	// StateSaves counts recovery state-file writes; StateRestores counts
	// restarts that reloaded a matching state file (0 or 1 per process).
	StateSaves    uint64
	StateRestores uint64
	// TelemetryDigestsSent counts health digests piggybacked out on
	// heartbeats, acks, and beacons; TelemetryDigestsReceived counts digests
	// about other nodes taken in from peers (accepted or not).
	TelemetryDigestsSent     uint64
	TelemetryDigestsReceived uint64
	// SLOAlerts counts SLO rules that entered the firing state in this
	// node's fleet view (recoveries are not counted).
	SLOAlerts uint64
	// TraceWriteErrors counts failed or dropped writes on the tracer's file
	// sink (0 without a -trace-file sink).
	TraceWriteErrors uint64
	// Transport reports the transport layer's drop accounting (inbox
	// sheds, send failures, chaos-injected faults) when the node's
	// transport exposes it; zero otherwise.
	Transport transport.DropStats
}

// statCounters is the node's internal lock-free tally.
type statCounters struct {
	sent          [32]atomic.Uint64 // indexed by wire.Type
	received      [32]atomic.Uint64
	delivered     atomic.Uint64
	dupes         atomic.Uint64
	retries       atomic.Uint64
	suspects      atomic.Uint64
	neighborsDead atomic.Uint64
	repairBackup  atomic.Uint64
	repairSearch  atomic.Uint64
	sendErrors    atomic.Uint64
	nacksSent     atomic.Uint64
	nacksFwd      atomic.Uint64
	retransmits   atomic.Uint64
	gapsOpen      atomic.Uint64
	gapsRecovered atomic.Uint64
	gapsAbandoned atomic.Uint64
	outOfWindow   atomic.Uint64

	promotions      atomic.Uint64
	demotions       atomic.Uint64
	charterRepl     atomic.Uint64
	orphansAbsorbed atomic.Uint64

	overloadEpisodes atomic.Uint64
	publishRejects   atomic.Uint64
	relaySheds       atomic.Uint64

	dhtLookups   atomic.Uint64
	dhtFallbacks atomic.Uint64
	dhtStores    atomic.Uint64
	dhtRescues   atomic.Uint64

	stateSaves    atomic.Uint64
	stateRestores atomic.Uint64

	telemetrySent atomic.Uint64
	telemetryRecv atomic.Uint64
	sloAlerts     atomic.Uint64
}

func (s *statCounters) onSend(t wire.Type) { s.onSendN(t, 1) }

func (s *statCounters) onSendN(t wire.Type, links int) {
	if t > 0 && int(t) < len(s.sent) {
		s.sent[t].Add(uint64(links))
	}
}

func (s *statCounters) onRecv(t wire.Type) {
	if t > 0 && int(t) < len(s.received) {
		s.received[t].Add(1)
	}
}

// Stats returns a snapshot of the node's message counters.
func (n *Node) Stats() Stats {
	out := Stats{
		Sent:                     make(map[string]uint64),
		Received:                 make(map[string]uint64),
		Delivered:                n.stats.delivered.Load(),
		DuplicatesDropped:        n.stats.dupes.Load(),
		Retries:                  n.stats.retries.Load(),
		Suspected:                n.stats.suspects.Load(),
		NeighborsDeclaredDead:    n.stats.neighborsDead.Load(),
		RepairsViaBackup:         n.stats.repairBackup.Load(),
		RepairsViaSearch:         n.stats.repairSearch.Load(),
		SendErrors:               n.stats.sendErrors.Load(),
		NacksSent:                n.stats.nacksSent.Load(),
		NacksForwarded:           n.stats.nacksFwd.Load(),
		Retransmits:              n.stats.retransmits.Load(),
		GapsDetected:             n.stats.gapsOpen.Load(),
		GapsRecovered:            n.stats.gapsRecovered.Load(),
		GapsAbandoned:            n.stats.gapsAbandoned.Load(),
		OutOfWindow:              n.stats.outOfWindow.Load(),
		Promotions:               n.stats.promotions.Load(),
		Demotions:                n.stats.demotions.Load(),
		CharterReplications:      n.stats.charterRepl.Load(),
		OrphansReabsorbed:        n.stats.orphansAbsorbed.Load(),
		OverloadEpisodes:         n.stats.overloadEpisodes.Load(),
		PublishRejects:           n.stats.publishRejects.Load(),
		RelaySheds:               n.stats.relaySheds.Load(),
		DhtLookups:               n.stats.dhtLookups.Load(),
		DhtFallbacks:             n.stats.dhtFallbacks.Load(),
		DhtStores:                n.stats.dhtStores.Load(),
		DhtRescues:               n.stats.dhtRescues.Load(),
		StateSaves:               n.stats.stateSaves.Load(),
		StateRestores:            n.stats.stateRestores.Load(),
		TelemetryDigestsSent:     n.stats.telemetrySent.Load(),
		TelemetryDigestsReceived: n.stats.telemetryRecv.Load(),
		SLOAlerts:                n.stats.sloAlerts.Load(),
		TraceWriteErrors:         n.tracer.SinkErrors(),
	}
	if dc, ok := n.tr.(transport.DropCounter); ok {
		out.Transport = dc.DropStats()
	}
	for t := 1; t < len(n.stats.sent); t++ {
		if v := n.stats.sent[t].Load(); v > 0 {
			out.Sent[wire.Type(t).String()] = v
		}
		if v := n.stats.received[t].Load(); v > 0 {
			out.Received[wire.Type(t).String()] = v
		}
	}
	return out
}

// Merge folds other's counters into s (fleet-wide aggregation: sum each
// node's snapshot into one). Nil maps are allocated on demand.
func (s *Stats) Merge(other Stats) {
	if s.Sent == nil {
		s.Sent = make(map[string]uint64)
	}
	if s.Received == nil {
		s.Received = make(map[string]uint64)
	}
	for k, v := range other.Sent {
		s.Sent[k] += v
	}
	for k, v := range other.Received {
		s.Received[k] += v
	}
	s.Delivered += other.Delivered
	s.DuplicatesDropped += other.DuplicatesDropped
	s.Retries += other.Retries
	s.Suspected += other.Suspected
	s.NeighborsDeclaredDead += other.NeighborsDeclaredDead
	s.RepairsViaBackup += other.RepairsViaBackup
	s.RepairsViaSearch += other.RepairsViaSearch
	s.SendErrors += other.SendErrors
	s.NacksSent += other.NacksSent
	s.NacksForwarded += other.NacksForwarded
	s.Retransmits += other.Retransmits
	s.GapsDetected += other.GapsDetected
	s.GapsRecovered += other.GapsRecovered
	s.GapsAbandoned += other.GapsAbandoned
	s.OutOfWindow += other.OutOfWindow
	s.Promotions += other.Promotions
	s.Demotions += other.Demotions
	s.CharterReplications += other.CharterReplications
	s.OrphansReabsorbed += other.OrphansReabsorbed
	s.OverloadEpisodes += other.OverloadEpisodes
	s.PublishRejects += other.PublishRejects
	s.RelaySheds += other.RelaySheds
	s.DhtLookups += other.DhtLookups
	s.DhtFallbacks += other.DhtFallbacks
	s.DhtStores += other.DhtStores
	s.DhtRescues += other.DhtRescues
	s.StateSaves += other.StateSaves
	s.StateRestores += other.StateRestores
	s.TelemetryDigestsSent += other.TelemetryDigestsSent
	s.TelemetryDigestsReceived += other.TelemetryDigestsReceived
	s.SLOAlerts += other.SLOAlerts
	s.TraceWriteErrors += other.TraceWriteErrors
	s.Transport.Add(other.Transport)
}

// Delta returns the counters gained since base (interval measurement
// between two snapshots of the same node). Counters are monotonic, so each
// difference saturates at 0 rather than underflowing if base is newer.
func (s Stats) Delta(base Stats) Stats {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := Stats{
		Sent:                     make(map[string]uint64),
		Received:                 make(map[string]uint64),
		Delivered:                sub(s.Delivered, base.Delivered),
		DuplicatesDropped:        sub(s.DuplicatesDropped, base.DuplicatesDropped),
		Retries:                  sub(s.Retries, base.Retries),
		Suspected:                sub(s.Suspected, base.Suspected),
		NeighborsDeclaredDead:    sub(s.NeighborsDeclaredDead, base.NeighborsDeclaredDead),
		RepairsViaBackup:         sub(s.RepairsViaBackup, base.RepairsViaBackup),
		RepairsViaSearch:         sub(s.RepairsViaSearch, base.RepairsViaSearch),
		SendErrors:               sub(s.SendErrors, base.SendErrors),
		NacksSent:                sub(s.NacksSent, base.NacksSent),
		NacksForwarded:           sub(s.NacksForwarded, base.NacksForwarded),
		Retransmits:              sub(s.Retransmits, base.Retransmits),
		GapsDetected:             sub(s.GapsDetected, base.GapsDetected),
		GapsRecovered:            sub(s.GapsRecovered, base.GapsRecovered),
		GapsAbandoned:            sub(s.GapsAbandoned, base.GapsAbandoned),
		OutOfWindow:              sub(s.OutOfWindow, base.OutOfWindow),
		Promotions:               sub(s.Promotions, base.Promotions),
		Demotions:                sub(s.Demotions, base.Demotions),
		CharterReplications:      sub(s.CharterReplications, base.CharterReplications),
		OrphansReabsorbed:        sub(s.OrphansReabsorbed, base.OrphansReabsorbed),
		OverloadEpisodes:         sub(s.OverloadEpisodes, base.OverloadEpisodes),
		PublishRejects:           sub(s.PublishRejects, base.PublishRejects),
		RelaySheds:               sub(s.RelaySheds, base.RelaySheds),
		DhtLookups:               sub(s.DhtLookups, base.DhtLookups),
		DhtFallbacks:             sub(s.DhtFallbacks, base.DhtFallbacks),
		DhtStores:                sub(s.DhtStores, base.DhtStores),
		DhtRescues:               sub(s.DhtRescues, base.DhtRescues),
		StateSaves:               sub(s.StateSaves, base.StateSaves),
		StateRestores:            sub(s.StateRestores, base.StateRestores),
		TelemetryDigestsSent:     sub(s.TelemetryDigestsSent, base.TelemetryDigestsSent),
		TelemetryDigestsReceived: sub(s.TelemetryDigestsReceived, base.TelemetryDigestsReceived),
		SLOAlerts:                sub(s.SLOAlerts, base.SLOAlerts),
		TraceWriteErrors:         sub(s.TraceWriteErrors, base.TraceWriteErrors),
		Transport: transport.DropStats{
			InboxSheds:      sub(s.Transport.InboxSheds, base.Transport.InboxSheds),
			ControlSheds:    sub(s.Transport.ControlSheds, base.Transport.ControlSheds),
			ReliableSheds:   sub(s.Transport.ReliableSheds, base.Transport.ReliableSheds),
			BestEffortSheds: sub(s.Transport.BestEffortSheds, base.Transport.BestEffortSheds),
			FabricDrops:     sub(s.Transport.FabricDrops, base.Transport.FabricDrops),
			SendQueueDrops:  sub(s.Transport.SendQueueDrops, base.Transport.SendQueueDrops),
			BreakerRejects:  sub(s.Transport.BreakerRejects, base.Transport.BreakerRejects),
			Duplicates:      sub(s.Transport.Duplicates, base.Transport.Duplicates),
		},
	}
	for k, v := range s.Sent {
		if d := sub(v, base.Sent[k]); d > 0 {
			out.Sent[k] = d
		}
	}
	for k, v := range s.Received {
		if d := sub(v, base.Received[k]); d > 0 {
			out.Received[k] = d
		}
	}
	return out
}

// send wraps the transport send with accounting. All node code paths go
// through it.
func (n *Node) send(addr string, msg wire.Message) error {
	n.stats.onSend(msg.Type)
	err := n.tr.Send(addr, msg)
	if err != nil {
		n.stats.sendErrors.Add(1)
	}
	return err
}

// sendMany fans one message out to every addr, through the transport's
// encode-once fast path when it offers one (the TCP transport serializes the
// binary frame a single time and writes the same bytes to every link) and a
// per-link send loop otherwise. Accounting matches send — one sent tick per
// link, one SendErrors tick per immediate failure — and each, when non-nil,
// observes every link's outcome in order.
//
// With each nil the fan-out allocates nothing: the sent ticks are added up
// front and the per-link callback is the node's prebuilt countSendErr.
func (n *Node) sendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	if len(addrs) == 0 {
		return
	}
	n.stats.onSendN(msg.Type, len(addrs))
	cb := n.countSendErr
	if each != nil {
		cb = func(addr string, err error) {
			n.countSendErr(addr, err)
			each(addr, err)
		}
	}
	if n.multi != nil {
		n.multi.SendMany(addrs, msg, cb)
		return
	}
	for _, addr := range addrs {
		cb(addr, n.tr.Send(addr, msg))
	}
}
