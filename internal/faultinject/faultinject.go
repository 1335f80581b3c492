// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the TRAP pipeline. Long-running components (the engine's
// what-if costing, the generator trainer, the trapd job layer) carry
// named injection points behind a nil-by-default Injector; production
// code pays a nil check per point and nothing else. Tests and the trapd
// -inject flag install a Seeded injector whose rules fire errors,
// panics or latency at exact hit counts, so failure-handling paths are
// exercised reproducibly — the adversarial-perturbation idea of the
// paper, turned on the system itself.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injection point names compiled into the repository's components. An
// injector may match any point string; these are the built-in hooks.
const (
	// PointEngineCost fires on every Engine.QueryCost call (what-if and
	// true costing).
	PointEngineCost = "engine.cost"
	// PointPretrainEpoch fires at the top of every pretraining epoch.
	PointPretrainEpoch = "core.pretrain.epoch"
	// PointRLEpoch fires at the top of every RL training epoch.
	PointRLEpoch = "core.rl.epoch"
	// PointRLWorkload fires before each workload inside an RL epoch.
	PointRLWorkload = "core.rl.workload"
	// PointRollout fires inside every sampled-trajectory rollout worker,
	// before it decodes (so injected faults land mid-fan-out).
	PointRollout = "core.rl.rollout"
	// PointGenerate fires on every Framework.Generate/GenerateSampled.
	PointGenerate = "core.generate"
	// PointJoblogAppend fires at the top of every joblog append, before
	// the frame hits the file. An injected error is treated exactly like
	// a write/fsync failure (e.g. ENOSPC): the log degrades to read-only.
	PointJoblogAppend = "joblog.append"
)

// Injector decides at each named point whether to inject a fault. Fire
// may return an error (an injected failure), panic (an injected crash),
// or sleep (injected latency) before returning nil.
// Implementations must be safe for concurrent use.
type Injector interface {
	Fire(point string) error
}

// Fire is the nil-safe hook used at injection points: a nil injector is
// a no-op, which is the production configuration.
func Fire(in Injector, point string) error {
	if in == nil {
		return nil
	}
	return in.Fire(point)
}

// Error is an injected failure; errors.As finds it through any wrapping.
type Error struct {
	Point string
	Hit   uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (hit %d)", e.Point, e.Hit)
}

// Panic is the value thrown by panic rules, so recover sites can tell an
// injected crash from a genuine one.
type Panic struct {
	Point string
	Hit   uint64
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// Action is what a rule does when it fires.
type Action int

const (
	// ActError returns an *Error from the injection point.
	ActError Action = iota
	// ActPanic panics with a *Panic value.
	ActPanic
	// ActDelay sleeps Rule.Delay, then lets the point proceed.
	ActDelay
)

// String names the action (the form Parse reads).
func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule arms one injection point. Hits are counted per point; a rule
// fires on hits where `hit > After` and, when Every > 0, the hit index
// (after skipping After) is a multiple of Every, or, when Every == 0,
// with probability Prob drawn from the injector's seeded RNG. Count
// bounds the total fires of the rule (0 = unlimited).
type Rule struct {
	Point  string
	Action Action
	Every  uint64
	After  uint64
	Count  uint64
	Prob   float64
	Delay  time.Duration
}

// Seeded is a deterministic Injector: given the same seed and the same
// sequence of Fire calls, it makes the same decisions. All methods are
// safe for concurrent use (decisions serialize on an internal mutex;
// injected sleeps happen outside it).
type Seeded struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	hits  map[string]uint64
	fired []uint64 // per rule
	byPt  map[string]uint64
}

// NewSeeded builds a deterministic injector over the rules.
func NewSeeded(seed int64, rules ...Rule) *Seeded {
	return &Seeded{
		rng:   rand.New(rand.NewSource(seed)),
		rules: rules,
		hits:  map[string]uint64{},
		fired: make([]uint64, len(rules)),
		byPt:  map[string]uint64{},
	}
}

// Fire implements Injector. A nil *Seeded (what Parse returns for an
// empty spec) is a disarmed no-op even when it reaches an Injector
// interface, where the nil check in the package-level Fire cannot see
// it.
func (s *Seeded) Fire(point string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.hits[point]++
	hit := s.hits[point]
	for i := range s.rules {
		r := &s.rules[i]
		if r.Point != point || hit <= r.After {
			continue
		}
		if r.Count > 0 && s.fired[i] >= r.Count {
			continue
		}
		if r.Every > 0 {
			if (hit-r.After)%r.Every != 0 {
				continue
			}
		} else if s.rng.Float64() >= r.Prob {
			continue
		}
		s.fired[i]++
		s.byPt[point]++
		switch r.Action {
		case ActPanic:
			s.mu.Unlock()
			panic(&Panic{Point: point, Hit: hit})
		case ActDelay:
			d := r.Delay
			s.mu.Unlock()
			time.Sleep(d)
			return nil
		default:
			s.mu.Unlock()
			return &Error{Point: point, Hit: hit}
		}
	}
	s.mu.Unlock()
	return nil
}

// Hits returns how many times the point has been reached.
func (s *Seeded) Hits(point string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[point]
}

// Fired returns how many faults have been injected at the point.
func (s *Seeded) Fired(point string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byPt[point]
}

// Parse builds a Seeded injector from a compact rule spec, the form the
// trapd -inject flag takes:
//
//	point:action[:k=v,k=v,...][;point:action...]
//
// where action is error, panic or delay, and the options are every=N,
// after=N, count=N, p=FLOAT and delay=DURATION. Example:
//
//	core.rl.epoch:error:count=1;engine.cost:delay:every=100,delay=5ms
//
// An empty spec yields a nil injector (injection disabled).
func Parse(spec string, seed int64) (*Seeded, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		if len(fields) < 2 || fields[0] == "" {
			return nil, fmt.Errorf("faultinject: bad rule %q (want point:action[:opts])", part)
		}
		r := Rule{Point: fields[0]}
		switch fields[1] {
		case "error":
			r.Action = ActError
		case "panic":
			r.Action = ActPanic
		case "delay":
			r.Action = ActDelay
		default:
			return nil, fmt.Errorf("faultinject: unknown action %q (want error, panic or delay)", fields[1])
		}
		if len(fields) == 3 {
			for _, opt := range strings.Split(fields[2], ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: bad option %q in rule %q", opt, part)
				}
				var err error
				switch k {
				case "every":
					r.Every, err = strconv.ParseUint(v, 10, 64)
				case "after":
					r.After, err = strconv.ParseUint(v, 10, 64)
				case "count":
					r.Count, err = strconv.ParseUint(v, 10, 64)
				case "p":
					r.Prob, err = strconv.ParseFloat(v, 64)
				case "delay":
					r.Delay, err = time.ParseDuration(v)
				default:
					return nil, fmt.Errorf("faultinject: unknown option %q in rule %q", k, part)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: option %q in rule %q: %v", opt, part, err)
				}
			}
		}
		if r.Every == 0 && r.Prob == 0 {
			r.Every = 1 // bare "point:action" fires on every hit
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return NewSeeded(seed, rules...), nil
}
