package engine

// QueryWrittenOrder runs a SELECT with its inner-join prefix joined in
// the order the query was written, the reference the join-order
// batteries in package engine_test compare the planner's order with.
func QueryWrittenOrder(db *DB, sql string) (*Rows, error) {
	return queryInOrder(db, sql, inWrittenOrder)
}
