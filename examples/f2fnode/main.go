// F2F node runtime: executes the decentralized OSN protocol (outbox
// store-and-forward + version-vector anti-entropy between time-overlapping
// replicas) in a discrete-event simulation and compares the *measured*
// delivery delays against the paper's *analytic* update-propagation-delay
// metric — including the actual vs observed distinction of §II-C3 and
// resilience to injected contact loss.
package main

import (
	"fmt"
	"log"

	"dosn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := dosn.Facebook(1200, 3)
	if err != nil {
		return err
	}
	fmt.Println("dataset:", ds.Stats())

	for _, tc := range []struct {
		name   string
		policy dosn.Policy
		model  dosn.OnlineModel
	}{
		{name: "MaxAv / Sporadic", policy: dosn.MaxAv, model: dosn.NewSporadic(0)},
		{name: "MaxAv / FixedLength(8h)", policy: dosn.MaxAv, model: dosn.NewFixedLength(8)},
		{name: "Random / Sporadic", policy: dosn.RandomPolicy, model: dosn.NewSporadic(0)},
	} {
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset:   ds,
			Schedules: dosn.BuildScheduleTable(tc.model, ds, 17, 1),
			Policy:    tc.policy,
			Mode:      dosn.ConRep,
			Budget:    3,
			MaxWalls:  20,
			Days:      7,
			Seed:      17,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n=== %s: %d walls, %d posts over 7 simulated days ===\n",
			tc.name, res.Walls, res.Posts)
		fmt.Printf("  delivered to full replica group: %5.1f%%\n", res.DeliveredFraction*100)
		fmt.Printf("  analytic worst-case delay:       %6.2f h (upper bound)\n", res.AnalyticWorstHours)
		fmt.Printf("  measured max delay (per post):   %6.2f h\n", res.MeasuredMaxHours)
		fmt.Printf("  measured mean delay (actual):    %6.2f h\n", res.MeasuredPairHours)
		fmt.Printf("  measured mean delay (observed):  %6.2f h ← what a friend perceives\n", res.ObservedPairHours)
		fmt.Printf("  immediate landings:              %5.1f%% (analytic AoD-activity %.1f%%)\n",
			res.ImmediateFraction*100, res.AnalyticAoDActivity*100)
		fmt.Printf("  anti-entropy exchanges: %d, posts transferred: %d\n",
			res.Exchanges, res.PostsTransferred)
	}

	// Failure injection: the anti-entropy protocol retries at every contact,
	// so moderate loss slows propagation without breaking convergence.
	fmt.Println("\n=== contact-loss sensitivity (MaxAv / Sporadic, 7 days) ===")
	fmt.Printf("%-10s%14s%14s\n", "loss", "delivered", "mean delay(h)")
	sporadic := dosn.BuildScheduleTable(dosn.NewSporadic(0), ds, 23, 1)
	for _, loss := range []float64{0, 0.25, 0.5, 0.75} {
		res, err := dosn.RunProtocolValidation(dosn.ProtocolConfig{
			Dataset:   ds,
			Schedules: sporadic,
			MaxWalls:  15,
			Days:      7,
			LossRate:  loss,
			Seed:      23,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-10.2f%13.1f%%%14.2f\n", loss, res.DeliveredFraction*100, res.MeasuredPairHours)
	}
	return nil
}
