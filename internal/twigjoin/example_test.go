package twigjoin_test

import (
	"fmt"
	"log"
	"strings"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// ExampleEnumerate streams every match of a twig query, in deterministic
// order.
func ExampleEnumerate() {
	dict := labeltree.NewDict()
	tree, err := xmlparse.Parse(strings.NewReader(
		`<site><item><name/><price/></item><item><name/><price/></item></site>`), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	x := twigjoin.NewIndex(tree)
	q := twigjoin.MustParseQuery("//item(name,price)", dict)
	matches := 0
	twigjoin.Enumerate(x, q, nil, func(m twigjoin.Match) bool {
		matches++
		return true
	})
	fmt.Println(matches, "matches")
	// Output: 2 matches
}

// ExampleAnswers selects the answer nodes of a query under XPath's
// existential semantics, in document order.
func ExampleAnswers() {
	dict := labeltree.NewDict()
	tree, err := xmlparse.Parse(strings.NewReader(
		`<r><a><b/></a><a/><a><b/></a></r>`), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	x := twigjoin.NewIndex(tree)
	q := twigjoin.MustParseQuery("//a(b)", dict)
	fmt.Println(len(twigjoin.Answers(x, q)), "answer nodes")
	// Output: 2 answer nodes
}
