package metrics

import (
	"math/rand"
	"slices"
	"testing"

	"dosn/internal/interval"
	"dosn/internal/socialgraph"
)

type uid = socialgraph.UserID

// chain: owner 0 online [0,120), replica 1 [60,180), replica 2 [150,270),
// creator 3 [30,90); the group of wall 0 is {0, 1, 2}.
var chain = interval.BitmapsFromSets([]interval.Set{
	interval.Window(0, 120), interval.Window(60, 120), interval.Window(150, 120), interval.Window(30, 60),
})

func arrivals(t *testing.T, d Delivery, group []uid, creator uid, created int) ([]int, int) {
	t.Helper()
	arr := make([]int, len(group))
	dropped := d.Arrivals(group, creator, created, arr)
	return arr, dropped
}

// TestDeliveryScenarios pins the contact rule's cases, minute for minute.
func TestDeliveryScenarios(t *testing.T) {
	day := interval.DayMinutes
	wrap := make([]interval.Bitmap, 2) // 0 online [1400,1500) across midnight
	wrap[0].AddInterval(interval.Interval{Start: 1400, End: 1500})
	wrap[1].AddInterval(interval.Interval{Start: 20, End: 40})
	always := interval.BitmapsFromSets([]interval.Set{interval.FullDay(), interval.FullDay(), interval.Window(100, 100)})
	for _, tc := range []struct {
		name    string
		d       Delivery
		group   []uid
		creator uid
		created int
		want    []int
	}{
		// The creator hands over to the owner online at creation, and the
		// post follows the chain of overlapping sessions.
		{"immediate landing", Delivery{Bitmaps: chain, Horizon: 41, Eager: true}, []uid{0, 1, 2}, 3, 40, []int{40, -1, -1}},
		{"chain", Delivery{Bitmaps: chain, Horizon: 3 * day, Eager: true}, []uid{0, 1, 2}, 3, 40, []int{40, 60, 150}},
		// Offline at creation, the creator hands over at its next session.
		{"creator offline", Delivery{Bitmaps: chain, Horizon: 3 * day, Eager: true}, []uid{0, 1, 2}, 3, 1000, []int{day + 30, day + 60, day + 150}},
		{"owner-only wall", Delivery{Bitmaps: chain, Horizon: day, Eager: true}, []uid{0}, 3, 40, []int{40}},
		// The owner holds its own post from creation, online or not.
		{"owner on own wall", Delivery{Bitmaps: chain, Horizon: 3 * day, Eager: true}, []uid{0, 1, 2}, 0, 10, []int{10, 60, 150}},
		{"owner offline on own wall", Delivery{Bitmaps: chain, Horizon: 3 * day, Eager: true}, []uid{0, 1, 2}, 0, 500, []int{500, day + 60, day + 150}},
		// Abutting sessions meet when the lower ID's starts: 0's start at
		// 60 sees 1 as at minute 59; 1's start at 60 sees 0 as at 60.
		{"abutting lower ID starts", Delivery{Bitmaps: interval.BitmapsFromSets([]interval.Set{interval.Window(60, 120), interval.Window(0, 60)}), Horizon: 2 * day, Eager: true},
			[]uid{0, 1}, 1, 30, []int{60, 30}},
		{"abutting higher ID starts", Delivery{Bitmaps: interval.BitmapsFromSets([]interval.Set{interval.Window(0, 60), interval.Window(60, 120)}), Horizon: 2 * day, Eager: true},
			[]uid{0, 1}, 0, 30, []int{30, -1}},
		{"a minute apart", Delivery{Bitmaps: interval.BitmapsFromSets([]interval.Set{interval.Window(62, 120), interval.Window(0, 60)}), Horizon: 2 * day, Eager: true},
			[]uid{0, 1}, 1, 30, []int{-1, 30}},
		// A row wrapping midnight is online on both sides of it.
		{"midnight-wrapping row", Delivery{Bitmaps: wrap, Horizon: 2 * day, Eager: true}, []uid{0, 1}, 0, 1410, []int{1410, day + 20}},
		// Members online all day meet at their rounds, or else at midnight.
		{"eager round", Delivery{Bitmaps: always, Horizon: 2 * day, Eager: true}, []uid{0, 1}, 2, 150, []int{150, 151}},
		{"midnight session start", Delivery{Bitmaps: always, Horizon: 2 * day}, []uid{0, 1}, 2, 150, []int{150, day}},
		// Handed over at the pair's last shared minute, the post waits the
		// pair's whole gap (1,380 minutes) and one minute more.
		{"last shared minute", Delivery{Bitmaps: interval.BitmapsFromSets([]interval.Set{interval.Window(0, 120), interval.Window(0, 60), interval.Window(59, 41)}), Horizon: 2 * day, Eager: true},
			[]uid{0, 1}, 2, 59, []int{59, day}},
		// IDs outside the schedules are never online.
		{"out-of-range member", Delivery{Bitmaps: chain, Horizon: 2 * day, Eager: true}, []uid{0, 9}, 3, 40, []int{40, -1}},
		{"out-of-range creator", Delivery{Bitmaps: chain, Horizon: 2 * day, Eager: true}, []uid{0, 1}, -1, 40, []int{-1, -1}},
		{"out-of-range creator in the group", Delivery{Bitmaps: chain, Horizon: 2 * day, Eager: true}, []uid{0, 9}, 9, 40, []int{-1, 40}},
		{"beyond the horizon", Delivery{Bitmaps: chain, Horizon: 100, Eager: true}, []uid{0, 1, 2}, 3, 40, []int{40, 60, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, dropped := arrivals(t, tc.d, tc.group, tc.creator, tc.created); !slices.Equal(got, tc.want) || dropped != 0 {
				t.Errorf("arrivals %v (%d dropped), want %v", got, dropped, tc.want)
			}
		})
	}
}

// TestDeliveryLoss: total loss strands a handed-over post and keeps a
// creator's own post at the creator; half loss still delivers over a month;
// and a contact's fate is one draw, whichever way round the pair is named.
func TestDeliveryLoss(t *testing.T) {
	t.Run("total loss", func(t *testing.T) {
		d := Delivery{Bitmaps: chain, Horizon: 3 * interval.DayMinutes, Eager: true, Loss: Loss{Rate: 1}}
		if got, dropped := arrivals(t, d, []uid{0, 1, 2}, 3, 40); !slices.Equal(got, []int{-1, -1, -1}) || dropped == 0 {
			t.Errorf("arrivals %v, %d dropped", got, dropped)
		}
		if got, _ := arrivals(t, d, []uid{0, 1, 2}, 0, 10); !slices.Equal(got, []int{10, -1, -1}) {
			t.Errorf("own wall: arrivals %v", got)
		}
	})
	half := Delivery{Bitmaps: chain, Horizon: 30 * interval.DayMinutes, Eager: true, Loss: Loss{Rate: 0.5, Seed: 4}}
	t.Run("half loss", func(t *testing.T) {
		if got, dropped := arrivals(t, half, []uid{0, 1, 2}, 3, 40); slices.Contains(got, -1) || dropped == 0 {
			t.Errorf("over 30 days: arrivals %v, %d dropped", got, dropped)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		got, _ := arrivals(t, half, []uid{0, 1, 2}, 3, 40)
		if again, _ := arrivals(t, half, []uid{0, 1, 2}, 3, 40); !slices.Equal(got, again) {
			t.Errorf("two runs differ: %v, %v", got, again)
		}
		l, drops := Loss{Rate: 0.3, Seed: 11}, 0
		for m := range 10000 {
			if l.Drops(3, 5, m) != l.Drops(5, 3, m) {
				t.Fatalf("minute %d: the pair's two namings draw differently", m)
			}
			if l.Drops(3, 5, m) {
				drops++
			}
		}
		if drops < 2800 || drops > 3200 {
			t.Errorf("rate 0.3 dropped %d of 10000 contacts", drops)
		}
	})
}

// TestDeliveryWithinAnalyticWorstCase is claim E5 as a property: at loss 0
// with eager push, every fully delivered post's maximum delay from its first
// landing is at most its wall's analytic worst case (§II-C3), whose edges
// weigh the longest run of minutes two members are not online together.
// Slack: one minute a hop. A member that receives at a shared minute runs
// its round at the next, so a hop can take its edge's weight plus one (the
// "last shared minute" scenario); a path has at most len(group)−1 hops. Walls whose analytic graph is not
// connected are skipped: their bound leaves the unreachable pairs out.
func TestDeliveryWithinAnalyticWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const users = 12
	checked := 0
	for range 300 {
		sets := make([]interval.Set, users)
		for u := range sets {
			for range 1 + rng.Intn(3) {
				sets[u] = sets[u].Union(interval.Window(rng.Intn(interval.DayMinutes), 30+rng.Intn(300)))
			}
		}
		bitmaps := interval.BitmapsFromSets(sets)
		perm := rng.Perm(users)
		owner, replicas := uid(perm[0]), make([]uid, rng.Intn(6))
		for i := range replicas {
			replicas[i] = uid(perm[1+i])
		}
		bound := UpdatePropagationDelay(owner, replicas, bitmaps)
		if !bound.Connected {
			continue
		}
		group := slices.Sorted(slices.Values(append([]uid{owner}, replicas...)))
		d := Delivery{Bitmaps: bitmaps, Horizon: 5 * interval.DayMinutes, Eager: true}
		for range 5 {
			arr, _ := arrivals(t, d, group, uid(rng.Intn(users)), rng.Intn(2*interval.DayMinutes))
			if slices.Contains(arr, -1) {
				continue
			}
			checked++
			if delay, limit := slices.Max(arr)-slices.Min(arr), bound.Hours*60+float64(len(group)-1); float64(delay) > limit {
				t.Errorf("group %v: delivered in %d minutes, analytic worst case %.0f minutes (+%d slack)", group, delay, bound.Hours*60, len(group)-1)
			}
		}
	}
	if checked < 500 {
		t.Errorf("only %d posts fully delivered", checked)
	}
}
