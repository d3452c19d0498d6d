package main

import (
	"fmt"

	"example.com/dc/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Value(1))
}
