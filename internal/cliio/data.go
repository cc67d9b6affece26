package cliio

import (
	"errors"
	"fmt"

	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
)

// LoadData returns the data hypergraph the binaries' -input and -dataset
// flags name: the text file at input, or the Table 3 preset tagged dataset,
// generated. Exactly one of the two must be set.
func LoadData(input, dataset string) (*hypergraph.Hypergraph, error) {
	switch {
	case input != "" && dataset != "":
		return nil, fmt.Errorf("-input and -dataset are mutually exclusive")
	case input != "":
		return hypergraph.Load(input)
	case dataset != "":
		p, err := gen.PresetByTag(dataset)
		if err != nil {
			return nil, err
		}
		return gen.Generate(p.Config)
	}
	return nil, errors.New("need -input FILE or -dataset TAG")
}
