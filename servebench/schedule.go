package main

import (
	"math/rand"
	"sort"
	"time"

	"carpool/internal/cluster"
	"carpool/internal/engine"
)

// item is one scheduled wire record: a frame for sta, or (roam) a
// request to move sta to AP ap. It packs into eight bytes, so that a
// schedule of millions of records stays small.
type item struct {
	dueUs uint32 // due time from the start of sending, in microseconds
	sta   uint16
	roam  bool
	ap    uint8
}

func (it item) due() time.Duration { return time.Duration(it.dueUs) * time.Microsecond }

func us(d time.Duration) uint32 { return uint32(d / time.Microsecond) }

// schedule is a run's offered input, generated from the seed alone.
type schedule struct {
	items  []item
	frames int // data records (items minus roams)
}

// makeSchedule draws the run's records. Open-loop workloads get one
// aggregate Poisson process over the run with uniformly drawn stations;
// a batch workload gets all its frames due at time zero. Roam events come
// from their own seeded stream and merge in by due time.
func makeSchedule(s serveSpec, l loadSpec, seed int64, seconds float64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var items []item
	if l.Rate > 0 {
		horizon := time.Duration(seconds * float64(time.Second))
		items = make([]item, 0, int(l.Rate*seconds*1.01)+16)
		at := 0.0
		for {
			at += rng.ExpFloat64() / l.Rate
			due := time.Duration(at * float64(time.Second))
			if due >= horizon {
				break
			}
			items = append(items, item{dueUs: us(due), sta: uint16(rng.Intn(s.STAs))})
		}
	} else {
		items = make([]item, l.Batch)
		for i := range items {
			items[i].sta = uint16(rng.Intn(s.STAs))
		}
	}
	sc := schedule{items: items, frames: len(items)}
	if l.RoamRate > 0 && s.APs > 1 {
		sc.items = append(sc.items, roamSchedule(s, l.RoamRate, seed, seconds)...)
		sort.SliceStable(sc.items, func(i, j int) bool { return sc.items[i].dueUs < sc.items[j].dueUs })
	}
	return sc
}

// roamSchedule draws seeded roam events that keep the APs' station
// counts level, so that no AP runs hot by chance of the seed: an event
// moves a random station from the fullest AP to the emptiest while
// their counts differ by two or more, and otherwise swaps two random
// stations between two random APs.
func roamSchedule(s serveSpec, rate float64, seed int64, seconds float64) []item {
	rng := rand.New(rand.NewSource(seed ^ 0x0a0a_5eed))
	route := make([]int, s.STAs)
	count := make([]int, s.APs)
	for sta := range route {
		route[sta] = cluster.HomeAP(sta, s.APs)
		count[route[sta]]++
	}
	pick := func(ap int) int { // a random station on ap
		var on []int
		for sta, a := range route {
			if a == ap {
				on = append(on, sta)
			}
		}
		return on[rng.Intn(len(on))]
	}
	var out []item
	move := func(due time.Duration, sta, ap int) {
		count[route[sta]]--
		count[ap]++
		route[sta] = ap
		out = append(out, item{dueUs: us(due), sta: uint16(sta), roam: true, ap: uint8(ap)})
	}
	horizon := time.Duration(seconds * float64(time.Second))
	for at := rng.ExpFloat64() / rate; ; at += rng.ExpFloat64() / rate {
		due := time.Duration(at * float64(time.Second))
		if due >= horizon {
			return out
		}
		hi, lo := 0, 0
		for a, c := range count {
			if c > count[hi] {
				hi = a
			}
			if c < count[lo] {
				lo = a
			}
		}
		if count[hi]-count[lo] >= 2 {
			move(due, pick(hi), lo)
			continue
		}
		x := rng.Intn(s.APs)
		y := (x + 1 + rng.Intn(s.APs-1)) % s.APs
		if count[x] == 0 || count[y] == 0 {
			continue
		}
		a, b := pick(x), pick(y)
		move(due, a, y)
		move(due, b, x)
	}
}

// encoder turns schedule items into wire records. Payload bytes are a
// pure function of the seed and the item index, so the wire replay can
// regenerate the exact byte stream of the run.
type encoder struct {
	l       loadSpec
	seed    int64
	payload []byte
}

func newEncoder(l loadSpec, seed int64) *encoder {
	return &encoder{l: l, seed: seed, payload: make([]byte, l.FrameBytes)}
}

func (e *encoder) append(buf []byte, idx int, it item) []byte {
	switch {
	case it.roam:
		return engine.AppendRoamRecord(buf, int(it.sta), int(it.ap))
	case e.l.Payload:
		x := uint64(e.seed)*0x9e3779b97f4a7c15 ^ uint64(idx+1)*0xbf58476d1ce4e5b9
		for i := range e.payload {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e.payload[i] = byte(x)
		}
		return engine.AppendDataRecord(buf, int(it.sta), e.payload)
	default:
		return engine.AppendSizeRecord(buf, int(it.sta), e.l.FrameBytes)
	}
}
