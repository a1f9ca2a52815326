package workload

import (
	"fmt"
	"math/rand"

	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
)

// TPCCLite is a reduced order-processing workload in the spirit of
// TPC-C: customers with balances, orders with order lines, and two
// transaction profiles (NewOrder, Payment) spanning multiple tables —
// the kind of enterprise workload the paper's engine targets.
type TPCCLite struct {
	E         *shard.Engine
	Customers *shard.Table
	Orders    *shard.Table
	Lines     *shard.Table

	NumCustomers int
	NumItems     int
	nextOrderID  int64
}

// SetupTPCCLite creates the three tables and loads customers.
func SetupTPCCLite(e *shard.Engine, numCustomers, numItems int) (*TPCCLite, error) {
	custSchema, _ := storage.NewSchema(
		storage.ColumnDef{Name: "c_id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "c_name", Type: storage.TypeString},
		storage.ColumnDef{Name: "c_balance", Type: storage.TypeFloat64},
	)
	orderSchema, _ := storage.NewSchema(
		storage.ColumnDef{Name: "o_id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "o_c_id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "o_lines", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "o_delivered", Type: storage.TypeInt64},
	)
	lineSchema, _ := storage.NewSchema(
		storage.ColumnDef{Name: "l_o_id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "l_item", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "l_qty", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "l_price", Type: storage.TypeFloat64},
	)
	customers, err := e.CreateTable("customers", custSchema, "c_id")
	if err != nil {
		return nil, err
	}
	orders, err := e.CreateTable("orders", orderSchema, "o_id", "o_c_id")
	if err != nil {
		return nil, err
	}
	lines, err := e.CreateTable("orderlines", lineSchema, "l_o_id")
	if err != nil {
		return nil, err
	}
	w := &TPCCLite{
		E: e, Customers: customers, Orders: orders, Lines: lines,
		NumCustomers: numCustomers, NumItems: numItems,
	}
	tx := e.Begin()
	for c := 0; c < numCustomers; c++ {
		if _, err := tx.Insert(customers, []storage.Value{
			storage.Int(int64(c)),
			storage.Str(fmt.Sprintf("customer-%05d", c)),
			storage.Float(0),
		}); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return w, nil
}

// AttachTPCCLite re-binds the workload to an engine that already holds
// the tables (e.g. after a restart), resuming order-ID allocation after
// the highest committed order.
func AttachTPCCLite(e *shard.Engine, numCustomers, numItems int) (*TPCCLite, error) {
	customers, err := e.Table("customers")
	if err != nil {
		return nil, err
	}
	orders, err := e.Table("orders")
	if err != nil {
		return nil, err
	}
	lines, err := e.Table("orderlines")
	if err != nil {
		return nil, err
	}
	w := &TPCCLite{
		E: e, Customers: customers, Orders: orders, Lines: lines,
		NumCustomers: numCustomers, NumItems: numItems,
	}
	for _, r := range scan(e.Begin(), orders) {
		if id := orders.Value(0, r).I; id >= w.nextOrderID {
			w.nextOrderID = id + 1
		}
	}
	return w, nil
}

// NewOrder runs one new-order transaction: insert an order with 5–15
// lines and debit the customer's balance. Returns txn.ErrConflict when
// it loses a write-write race on the customer row.
func (w *TPCCLite) NewOrder(rng *rand.Rand) error {
	tx := w.E.Begin()
	cid := int64(rng.Intn(w.NumCustomers))
	oid := w.nextOrderID
	w.nextOrderID++
	nLines := 5 + rng.Intn(11)

	if _, err := tx.Insert(w.Orders, []storage.Value{
		storage.Int(oid), storage.Int(cid), storage.Int(int64(nLines)), storage.Int(0),
	}); err != nil {
		tx.Abort()
		return err
	}
	var total float64
	for l := 0; l < nLines; l++ {
		price := float64(rng.Intn(10000)) / 100
		qty := int64(1 + rng.Intn(10))
		total += price * float64(qty)
		if _, err := tx.Insert(w.Lines, []storage.Value{
			storage.Int(oid), storage.Int(int64(rng.Intn(w.NumItems))),
			storage.Int(qty), storage.Float(price),
		}); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := w.debit(tx, cid, total); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Payment runs one payment transaction: credit a customer's balance.
func (w *TPCCLite) Payment(rng *rand.Rand) error {
	tx := w.E.Begin()
	cid := int64(rng.Intn(w.NumCustomers))
	amount := -float64(rng.Intn(20000)) / 100
	if err := w.debit(tx, cid, amount); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// debit updates the customer's balance inside tx.
func (w *TPCCLite) debit(tx *shard.Tx, cid int64, amount float64) error {
	rows := selectEq(tx, w.Customers, 0, storage.Int(cid))
	if len(rows) == 0 {
		return fmt.Errorf("workload: customer %d not found", cid)
	}
	cur := rowValues(w.Customers, rows[0])
	cur[2] = storage.Float(cur[2].F + amount)
	_, err := tx.Update(w.Customers, rows[0], cur)
	return err
}

// OrderStatus is the read-only profile: report a random customer's
// orders with their totals. Returns the number of orders seen.
func (w *TPCCLite) OrderStatus(rng *rand.Rand) int {
	tx := w.E.Begin()
	cid := int64(rng.Intn(w.NumCustomers))
	orders := selectEq(tx, w.Orders, 1, storage.Int(cid))
	for _, r := range orders {
		oid := w.Orders.Value(0, r).I
		w.OrderTotal(tx, oid)
	}
	tx.Commit()
	return len(orders)
}

// Delivery marks up to batch undelivered orders as delivered in one
// transaction (the TPC-C delivery truck). Returns how many orders were
// delivered, or an error (txn.ErrConflict on a lost race).
func (w *TPCCLite) Delivery(rng *rand.Rand, batch int) (int, error) {
	tx := w.E.Begin()
	pending := selectEq(tx, w.Orders, 3, storage.Int(0))
	if len(pending) > batch {
		pending = pending[:batch]
	}
	for _, r := range pending {
		vals := rowValues(w.Orders, r)
		vals[3] = storage.Int(1)
		if _, err := tx.Update(w.Orders, r, vals); err != nil {
			tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return len(pending), nil
}

// OrderTotal computes the order's total from its lines (consistency
// checks in tests and examples).
func (w *TPCCLite) OrderTotal(tx *shard.Tx, oid int64) float64 {
	rows := selectEq(tx, w.Lines, 0, storage.Int(oid))
	var total float64
	for _, r := range rows {
		total += w.Lines.Value(3, r).F * float64(w.Lines.Value(2, r).I)
	}
	return total
}
