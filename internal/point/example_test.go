package point_test

import (
	"fmt"

	"zskyline/internal/point"
)

// A BlockBuilder is the arena for assembling a Block row by row; the
// built Block then hands out zero-copy row views.
func ExampleBlockBuilder() {
	bb := point.NewBlockBuilder(2, 4)
	bb.Append(point.Point{1, 9})
	bb.Append(point.Point{2, 2})
	row := bb.Extend() // zeroed row, filled in place
	row[0], row[1] = 9, 1

	b := bb.Build() // detaches the arena; bb is reusable
	fmt.Println("rows:", b.Len(), "dims:", b.Dims)
	fmt.Println("row 1:", b.Row(1))
	fmt.Println("views:", b.Points())
	// Output:
	// rows: 3 dims: 2
	// row 1: (2, 2)
	// views: [(1, 9) (2, 2) (9, 1)]
}
