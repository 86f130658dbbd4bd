// Package suppress holds suppression comments for cmd/lint's test:
// only the one naming an analyzer of the suite is legal.
package suppress

// Sum adds its arguments.
func Sum(a, b int) int {
	//lint:ignore detrand names an analyzer of the suite
	s := a + b
	//lint:ignore nosuch names no analyzer
	s += 0
	//lint:ignore * a wildcard is no analyzer either
	return s
}
