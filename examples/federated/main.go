// Federated: the Telegraph FFF scenario that motivated SteMs — the same
// logical table served by competing autonomous Web sources, one of which
// stalls mid-query. The eddy runs both access methods concurrently; the
// shared SteM deduplicates their overlap, and results keep flowing through
// the stall. Runs on the concurrent (goroutine-per-module) engine with a
// scaled real clock (one virtual second per wall millisecond).
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"
	"time"

	stems "repro"
)

func main() {
	// A "flights" table mirrored by two providers. Provider A is fast but
	// stalls for 2 (virtual) seconds after 5 rows; provider B is slower but
	// steady. Carriers is a small reference table.
	flights := make([][]int64, 30)
	for i := range flights {
		flights[i] = []int64{int64(i), int64(i % 3)} // flight id, carrier
	}
	carriers := [][]int64{{0, 100}, {1, 200}, {2, 300}}

	q := stems.NewQuery().
		Table("flights", stems.Ints("id", "carrier"), flights).
		Table("carriers", stems.Ints("id", "code"), carriers).
		ScanWithStalls("flights", 50*time.Millisecond,
									stems.Stall{AfterRows: 5, For: 2 * time.Second}). // provider A
		Mirror("flights", flights, 120*time.Millisecond). // provider B
		Scan("carriers", 10*time.Millisecond).
		Where("flights.carrier", "=", "carriers.id")

	start := time.Now()
	var n int
	res, err := q.Run(stems.Options{
		Engine: stems.Concurrent, // 1 virtual second = 1ms wall
		OnResult: func(r stems.Row) {
			n++
			if n%10 == 0 {
				id, _ := r.Get("flights.id")
				fmt.Printf("  [wall %6v] result %d: flight %v (virtual t=%v)\n",
					time.Since(start).Round(time.Millisecond), n, id, r.At.Round(time.Millisecond))
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total results: %d (each flight exactly once — the shared SteM dedups the mirrors)\n", len(res.Rows))
	fmt.Printf("virtual duration %v; provider A's 2s stall was covered by provider B\n",
		res.Stats.Duration.Round(time.Millisecond))
}
