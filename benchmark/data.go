package main

import (
	"fmt"

	"hyrisenv"
)

// The one table every workload uses. Column order is fixed; the lower
// rungs of the traced ladder address columns by these indexes.
const tableName = "orders"

const (
	colID = iota
	colCustomer
	colRegion
	colAmount
	colPayload
	numCols
)

var schema = []hyrisenv.Column{
	{Name: "id", Type: hyrisenv.Int64},
	{Name: "customer", Type: hyrisenv.Int64},
	{Name: "region", Type: hyrisenv.String},
	{Name: "amount", Type: hyrisenv.Float64},
	{Name: "payload", Type: hyrisenv.String},
}

const (
	numRegions = 16
	// amounts are whole cents in [0, amountCents): 100k distinct values,
	// so the amount dictionary is large and a "< x" predicate is a real
	// range over it.
	amountCents = 100_000
)

func regionName(r int) string { return fmt.Sprintf("region-%02d", r) }

// row is one generated order. Amounts are kept in cents so that the
// benchmark's own expected counts never depend on float rounding.
type row struct {
	id       int64
	customer int64
	region   int
	cents    int64
	payload  string
}

func (r row) values() []hyrisenv.Value {
	return []hyrisenv.Value{
		hyrisenv.Int(r.id),
		hyrisenv.Int(r.customer),
		hyrisenv.Str(regionName(r.region)),
		hyrisenv.Float(float64(r.cents) / 100),
		hyrisenv.Str(r.payload),
	}
}

func (r row) equal(vals []hyrisenv.Value) bool {
	want := r.values()
	if len(vals) != len(want) {
		return false
	}
	for i := range want {
		if !want[i].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// mix is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct outputs (which is what makes payloads unique).
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// dataset is everything generated from the seed: the loaded rows, the
// scan workload's set-up updates, and every op's parameters. The child
// that loads and the parent that verifies both derive it from (seed,
// rows), so the engine only ever receives generated inputs.
type dataset struct {
	seed int64
	rows int
}

// hash returns the stream-th pseudo-random word for index i.
func (d dataset) hash(stream, i uint64) uint64 {
	return mix(mix(uint64(d.seed)+stream<<56) ^ i)
}

// row generates the row with id i. Ids at or above writeBase belong to
// the write streams and go through the same generator.
func (d dataset) row(i int64) row {
	h := d.hash(0, uint64(i))
	customers := uint64(d.rows/10 + 1)
	return row{
		id:       i,
		customer: int64(h % customers),
		region:   int((h >> 32) % numRegions),
		cents:    int64((h >> 36) % amountCents),
		payload:  fmt.Sprintf("%016x%016x", h, mix(h)),
	}
}

// writeBase is the first id of write stream s; loaded ids stay far below
// it, and each stream (one per ladder rung or client) has its own range.
func writeBase(s int) int64 { return int64(s+1) << 40 }

// scanUpdate is one set-up update of the scan workload.
type scanUpdate struct {
	id     int64
	region int
	cents  int64
}

// scanUpdates picks 2% of the rows, all among the newest tenth of ids
// (every fifth id there), so that most main morsels keep no dead version
// while the tail carries dead versions plus a delta.
func (d dataset) scanUpdates() []scanUpdate {
	tail := d.rows / 10
	first := int64(d.rows - tail)
	var ups []scanUpdate
	for j := int(d.hash(1, 0) % 5); j < tail; j += 5 {
		h := d.hash(1, uint64(j)+1)
		ups = append(ups, scanUpdate{id: first + int64(j), region: int(h % numRegions), cents: int64((h >> 8) % amountCents)})
	}
	return ups
}

// The scan workload draws its predicate constants from these small sets,
// so every expected count is one table lookup while the run is timed.
var (
	amountCuts   = []int64{100, 5_000, 10_000, 25_000, 50_000, 75_000, 90_000, 99_900}
	customerCuts = 4 // quartiles of the customer range
	// selectCents bounds the row-returning query: amount < 1.00, about
	// 0.1% of the rows.
	selectCents = int64(100)
)

func (d dataset) customerCut(q int) int64 { return int64(d.rows/10+1) * int64(q) / int64(customerCuts) }

// scanExpect holds the brute-force answers of every query the scan
// workload can issue.
type scanExpect struct {
	region      [numRegions]int
	amountBelow []int
	custNotReg  [][numRegions]int // [cut][region]: customer >= cut AND region != r
	selected    int               // rows with amount < selectCents
}

// scanExpected applies the set-up updates to the generated rows and
// counts every query's answer by brute force.
func (d dataset) scanExpected() scanExpect {
	rows := make([]row, d.rows)
	for i := range rows {
		rows[i] = d.row(int64(i))
	}
	for _, u := range d.scanUpdates() {
		rows[u.id].region, rows[u.id].cents = u.region, u.cents
	}
	e := scanExpect{amountBelow: make([]int, len(amountCuts)), custNotReg: make([][numRegions]int, customerCuts)}
	for _, r := range rows {
		e.region[r.region]++
		for i, c := range amountCuts {
			if r.cents < c {
				e.amountBelow[i]++
			}
		}
		if r.cents < selectCents {
			e.selected++
		}
		for q := 0; q < customerCuts; q++ {
			if r.customer >= d.customerCut(q) {
				for reg := 0; reg < numRegions; reg++ {
					if reg != r.region {
						e.custNotReg[q][reg]++
					}
				}
			}
		}
	}
	return e
}
