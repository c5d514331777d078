package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// ActionKind enumerates the fault actions a Schedule can program.
type ActionKind int

// Schedule action kinds.
const (
	// ActPartition cuts sites A and B in both directions.
	ActPartition ActionKind = iota
	// ActPartitionOneWay cuts A -> B only.
	ActPartitionOneWay
	// ActHeal restores A <-> B.
	ActHeal
	// ActHealOneWay restores A -> B.
	ActHealOneWay
	// ActHealAll removes every partition.
	ActHealAll
	// ActCrash takes site A down and severs its connections.
	ActCrash
	// ActRestart brings site A back.
	ActRestart
	// ActSetFaults installs Faults on link Class.
	ActSetFaults
	// ActClearFaults restores clean delivery on every class.
	ActClearFaults
)

// Action is one fault operation. Which fields matter depends on Kind:
// site actions use A (and B for pair actions), ActSetFaults uses Class
// and Faults.
type Action struct {
	Kind   ActionKind
	A, B   string
	Class  LinkClass
	Faults LinkFaults
}

// String renders the action for timelines and digests.
func (a Action) String() string {
	switch a.Kind {
	case ActPartition:
		return fmt.Sprintf("partition %s <-> %s", a.A, a.B)
	case ActPartitionOneWay:
		return fmt.Sprintf("partition %s -> %s", a.A, a.B)
	case ActHeal:
		return fmt.Sprintf("heal %s <-> %s", a.A, a.B)
	case ActHealOneWay:
		return fmt.Sprintf("heal %s -> %s", a.A, a.B)
	case ActHealAll:
		return "heal all"
	case ActCrash:
		return fmt.Sprintf("crash %s", a.A)
	case ActRestart:
		return fmt.Sprintf("restart %s", a.A)
	case ActSetFaults:
		return fmt.Sprintf("faults %s: %s", a.Class, a.Faults)
	case ActClearFaults:
		return "clear faults"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(a.Kind))
	}
}

// apply executes the action against a network.
func (a Action) apply(n *Network) {
	switch a.Kind {
	case ActPartition:
		n.Partition(a.A, a.B)
	case ActPartitionOneWay:
		n.PartitionOneWay(a.A, a.B)
	case ActHeal:
		n.Heal(a.A, a.B)
	case ActHealOneWay:
		n.HealOneWay(a.A, a.B)
	case ActHealAll:
		n.HealAll()
	case ActCrash:
		n.Crash(a.A)
	case ActRestart:
		n.Restart(a.A)
	case ActSetFaults:
		n.SetLinkFaults(a.Class, a.Faults)
	case ActClearFaults:
		n.ClearFaults()
	}
}

// Step is one scheduled action at an offset from the run's start.
type Step struct {
	At     time.Duration
	Action Action
}

// Schedule is a chaos program: a named, seeded list of timestamped
// fault actions. The schedule fully determines the fault timeline; the
// seed additionally drives frame-level fault PRNGs (see the package
// comment's seed discipline), so a run is replayed by re-running the
// same Schedule value.
type Schedule struct {
	Name  string
	Seed  int64
	Steps []Step
}

// Digest returns a short hex digest over the schedule's name, seed and
// sorted steps. Two runs of the same schedule report the same digest —
// the determinism check experiments assert on.
func (s Schedule) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d\n", s.Name, s.Seed)
	for _, st := range sortedSteps(s.Steps) {
		fmt.Fprintf(h, "%d %s\n", st.At, st.Action)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func sortedSteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	copy(out, steps)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Runner applies a Schedule to a Network as the caller's clock
// advances. It seeds the network's fault PRNGs from the schedule's
// seed at construction, so create the runner before starting the
// workload under test.
type Runner struct {
	net      *Network
	steps    []Step
	next     int
	timeline []string
}

// NewRunner prepares a schedule for execution: steps are sorted by
// offset (ties keep program order) and the network's fault PRNGs are
// seeded from the schedule seed.
func NewRunner(n *Network, s Schedule) *Runner {
	n.SeedFaults(s.Seed)
	return &Runner{net: n, steps: sortedSteps(s.Steps)}
}

// AdvanceTo applies every not-yet-applied step with At <= t, in order,
// and returns the timeline entries it fired. Call it with a
// monotonically advancing t (virtual or wall offset from the run's
// start).
func (r *Runner) AdvanceTo(t time.Duration) []string {
	var fired []string
	for r.next < len(r.steps) && r.steps[r.next].At <= t {
		st := r.steps[r.next]
		st.Action.apply(r.net)
		fired = append(fired, fmt.Sprintf("T=%s %s", st.At, st.Action))
		r.next++
	}
	r.timeline = append(r.timeline, fired...)
	return fired
}

// Finish applies all remaining steps regardless of offset, so a run
// always ends in the schedule's final state (typically healed).
func (r *Runner) Finish() []string {
	var fired []string
	for r.next < len(r.steps) {
		st := r.steps[r.next]
		st.Action.apply(r.net)
		fired = append(fired, fmt.Sprintf("T=%s %s", st.At, st.Action))
		r.next++
	}
	r.timeline = append(r.timeline, fired...)
	return fired
}

// Done reports whether every step has been applied.
func (r *Runner) Done() bool { return r.next >= len(r.steps) }

// Timeline returns every applied step so far, in application order.
// For a given Schedule the full timeline is identical on every run.
func (r *Runner) Timeline() []string {
	out := make([]string, len(r.timeline))
	copy(out, r.timeline)
	return out
}

// RandomSchedule generates a seeded chaos program over the given sites:
// link flaps (short symmetric cuts), one-way partitions, fault bursts
// on the wide-area class, and crash/restart episodes, all healed by
// span. The same (seed, sites, span) always yields the same program.
func RandomSchedule(name string, seed int64, sites []string, span time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Name: name, Seed: seed}
	if len(sites) < 2 || span <= 0 {
		return s
	}
	at := func(frac float64) time.Duration {
		return time.Duration(frac * float64(span))
	}
	episodes := 2 + rng.Intn(3)
	for i := 0; i < episodes; i++ {
		start := 0.1 + 0.7*rng.Float64()
		end := start + 0.05 + 0.15*rng.Float64()
		if end > 0.9 {
			end = 0.9
		}
		a := sites[rng.Intn(len(sites))]
		b := sites[rng.Intn(len(sites))]
		for b == a {
			b = sites[rng.Intn(len(sites))]
		}
		switch rng.Intn(4) {
		case 0: // link flap
			s.Steps = append(s.Steps,
				Step{At: at(start), Action: Action{Kind: ActPartition, A: a, B: b}},
				Step{At: at(end), Action: Action{Kind: ActHeal, A: a, B: b}})
		case 1: // asymmetric partition
			s.Steps = append(s.Steps,
				Step{At: at(start), Action: Action{Kind: ActPartitionOneWay, A: a, B: b}},
				Step{At: at(end), Action: Action{Kind: ActHealOneWay, A: a, B: b}})
		case 2: // lossy wide-area burst
			f := LinkFaults{
				Loss:   0.02 + 0.08*rng.Float64(),
				Jitter: time.Duration(rng.Intn(40)) * time.Millisecond,
			}
			s.Steps = append(s.Steps,
				Step{At: at(start), Action: Action{Kind: ActSetFaults, Class: WideArea, Faults: f}},
				Step{At: at(end), Action: Action{Kind: ActClearFaults}})
		default: // crash/restart
			s.Steps = append(s.Steps,
				Step{At: at(start), Action: Action{Kind: ActCrash, A: a}},
				Step{At: at(end), Action: Action{Kind: ActRestart, A: a}})
		}
	}
	s.Steps = append(s.Steps, Step{At: span, Action: Action{Kind: ActHealAll}},
		Step{At: span, Action: Action{Kind: ActClearFaults}})
	return s
}
