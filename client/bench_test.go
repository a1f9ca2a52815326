package client_test

import (
	"net"
	"sync/atomic"
	"testing"

	"hyrisenv"
	"hyrisenv/client"
)

// countedConn counts the client's writes: one per request frame.
type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// BenchmarkRoundTrip prices requests through client, wire and server
// over loopback, all in one process: a Ping, a Select of one row by an
// indexed key, and the oltp-write workload's transaction — 6 inserts, an
// update of one of the stream's earlier rows, a delete of its oldest row
// and the commit — reported with the request frames it sends. Run it with
// -benchmem: allocs/op counts both ends.
func BenchmarkRoundTrip(b *testing.B) {
	_, srv := startVolatile(b)
	var frames atomic.Int64
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1, ConnWrapper: func(nc net.Conn) net.Conn {
		return countedConn{nc, &frames}
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", cols, "id"); err != nil {
		b.Fatal(err)
	}
	const rows = 1000
	tx, err := c.Begin()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("t", hyrisenv.Int(int64(i)), hyrisenv.Str("v")); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := c.Select("t", hyrisenv.Pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(int64(i % rows))})
			if err != nil || len(got) != 1 {
				b.Fatalf("select: %v, %v", got, err)
			}
		}
	})
	b.Run("tx", func(b *testing.B) {
		const inserts = 6
		type ownRow struct {
			rid uint64
			id  int64
		}
		var own []ownRow // the stream's live rows, oldest first
		next := int64(rows)
		txn := func() {
			tx, err := c.Begin()
			if err != nil {
				b.Fatal(err)
			}
			fresh := make([]ownRow, inserts)
			for j := range fresh {
				fresh[j].id = next
				next++
				if fresh[j].rid, err = tx.Insert("t", hyrisenv.Int(fresh[j].id), hyrisenv.Str("v")); err != nil {
					b.Fatal(err)
				}
			}
			mutates := len(own) >= 2*inserts
			if mutates {
				mid := &own[len(own)/2]
				if mid.rid, err = tx.Update("t", mid.rid, hyrisenv.Int(mid.id), hyrisenv.Str("u")); err != nil {
					b.Fatal(err)
				}
				if err := tx.Delete("t", own[0].rid); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if mutates {
				own = own[1:]
			}
			own = append(own, fresh...)
		}
		for len(own) < 2*inserts { // until every transaction has the full shape
			txn()
		}
		b.ReportAllocs()
		b.ResetTimer()
		f0 := frames.Load()
		for i := 0; i < b.N; i++ {
			txn()
		}
		b.ReportMetric(float64(frames.Load()-f0)/float64(b.N), "frames/op")
	})
}
