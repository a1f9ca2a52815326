package client_test

import (
	"testing"

	"hyrisenv"
	"hyrisenv/client"
)

// BenchmarkRoundTrip prices one request through client, wire and server
// over loopback, all in one process: a Ping, and a Select of one row by
// an indexed key. Run it with -benchmem: allocs/op counts both ends.
func BenchmarkRoundTrip(b *testing.B) {
	_, srv := startVolatile(b)
	c, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1})
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
}
