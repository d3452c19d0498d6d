package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deckRequest is one body of the response deck.
type deckRequest struct {
	path string
	body []byte
}

// responseDeck is a fixed request set covering every route: the 45
// search shapes of the benchmark's search-cold workload (each tiled paper
// kernel size as a tile search, each untiled one as a joint plan search,
// fully associative, 2-way and 8-way, with set-associative lines cycling
// 1/4/8), then a few predicts, batches and simulations. Every body is
// fixed, so the deck's response digests pin the wire bytes of the search
// and model paths across refactors of the layers beneath them.
func responseDeck() []deckRequest {
	type kernelSize struct {
		kernel string
		n      int64
	}
	problems := []kernelSize{
		{"matmul", 64}, {"matmul", 128}, {"matmul", 256}, {"matmul", 512},
		{"twoindex", 32}, {"twoindex", 64},
		{"ccsd", 8}, {"ccsd", 16},
		{"matmul-naive", 32}, {"matmul-naive", 64}, {"matmul-naive", 128},
		{"twoindexchain", 32}, {"twoindexchain", 64}, {"twoindexchain", 128}, {"twoindexchain", 256},
	}
	tileDims := map[string][]string{
		"matmul":   {"TI", "TJ", "TK"},
		"twoindex": {"TI", "TJ", "TM", "TN"},
		"ccsd":     {"TA", "TB", "TI", "TJ", "TC", "TD"},
	}
	var deck []deckRequest
	add := func(path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		deck = append(deck, deckRequest{path, body})
	}
	lines := []int64{1, 4, 8}
	assoc := 0
	for i, ks := range problems {
		for j, ways := range []int64{0, 2, 8} {
			shape := int64(3*i + j)
			req := map[string]any{"kernel": ks.kernel, "n": ks.n}
			if ways == 0 {
				req["cacheElems"] = 1024 + shape
			} else {
				line := lines[assoc%len(lines)]
				assoc++
				req["cacheElems"] = ways * line * (32 + shape)
				req["ways"], req["line"] = ways, line
			}
			dims := tileDims[ks.kernel]
			if dims == nil {
				add("/v1/optimize", req)
				continue
			}
			max := map[string]int64{}
			var tiles []int64
			for _, d := range dims {
				max[d] = ks.n
				if ks.kernel == "ccsd" && (d == "TI" || d == "TJ") {
					max[d] = ks.n / 2 // the occupied range
				}
				tiles = append(tiles, 4)
			}
			req["tiles"], req["dims"] = tiles, max
			add("/v1/tilesearch", req)
		}
	}
	raw := func(path, body string) { deck = append(deck, deckRequest{path, []byte(body)}) }
	raw("/v1/analyze", `{"kernel":"twoindex","n":64,"tiles":[8,8,8,8]}`)
	raw("/v1/predict", `{"kernel":"matmul","n":256,"tiles":[16,32,8],"cacheElems":4096,"detail":true}`)
	raw("/v1/predict", `{"kernel":"twoindex","n":128,"tiles":[8,16,8,32],"cacheElems":2500}`)
	raw("/v1/predict", `{"kernel":"ccsd","n":32,"tiles":[8,8,4,4,8,8],"cacheElems":3000,"detail":true}`)
	raw("/v1/predict", `{"kernel":"matmul","n":128,"tiles":[16,16,32],"cacheElems":2048,"ways":8,"line":4,"detail":true}`)
	raw("/v1/predict", `{"kernel":"twoindex","n":64,"tiles":[16,8,8,16],"cacheElems":4096,"ways":8,"line":8}`)
	raw("/v1/predict", `{"kernel":"fourindex","n":32,"cacheElems":1600,"ways":8,"line":1,"detail":true}`)
	raw("/v1/batch", `{"items":[`+
		`{"path":"/v1/predict","request":{"kernel":"matmul","n":64,"tiles":[8,8,8],"cacheElems":700}},`+
		`{"path":"/v1/predict","request":{"kernel":"matmul","n":64,"tiles":[8,8,8],"cacheElems":768,"ways":8,"line":4}},`+
		`{"path":"/v1/simulate","request":{"kernel":"matmul","n":16,"tiles":[4,4,4],"watches":[64,256],"engine":"analytic"}}`+
		`],"candidates":{"kernel":"twoindex","n":64,"tiles":[8,8,8,8],"cacheElems":1504,"ways":8,"line":1,`+
		`"dims":["TI","TJ","TM","TN"],"sets":[[4,8,16,32],[8,8,8,8],[16,16,4,4],[32,4,32,4]]}}`)
	raw("/v1/batch", `{"candidates":{"kernel":"matmul","n":128,"tiles":[8,8,8],"cacheElems":1200,"detail":true,`+
		`"dims":["TI","TJ","TK"],"sets":[[4,8,16],[16,16,16],[32,8,4],[64,64,2],[8,128,8]]}}`)
	raw("/v1/simulate", `{"kernel":"matmul","n":64,"tiles":[8,8,8],"watches":[256,1024,4096],"engine":"analytic","perSite":true}`)
	raw("/v1/simulate", `{"kernel":"ccsd","n":16,"tiles":[4,4,4,4,4,4],"watches":[128,2048],"engine":"analytic"}`)
	raw("/v1/simulate", `{"kernel":"matmul","n":24,"tiles":[8,4,8],"watches":[64,512],"engine":"exact","perSite":true}`)
	raw("/v1/simulate", `{"kernel":"twoindexchain","n":20,"watches":[100,400],"engine":"exact"}`)
	raw("/v1/simulate", `{"kernel":"matmul-naive","n":32,"watches":[128,1024],"engine":"sampled"}`)
	raw("/v1/simulate", `{"kernel":"twoindex","n":24,"tiles":[8,8,4,4],"watches":[96,768],"engine":"sampled","perSite":true}`)
	return deck
}

// TestGoldenResponseDeck pins the response bytes of the deck, one
// "path sha256" line per request, against testdata/response_deck.sha256.
// The benchmark checks served bytes against Service.Compute in the same
// binary, so it cannot see a change to the wire format; this golden can.
// Regenerate with: go test ./internal/service -run GoldenResponseDeck -update
func TestGoldenResponseDeck(t *testing.T) {
	svc, _ := newTestService(t)
	var got bytes.Buffer
	for i, r := range responseDeck() {
		resp, err := svc.Compute(context.Background(), r.path, r.body)
		if err != nil {
			t.Fatalf("deck request %d (%s %s): %v", i, r.path, r.body, err)
		}
		fmt.Fprintf(&got, "%s %x\n", r.path, sha256.Sum256(resp))
	}
	golden := filepath.Join("testdata", "response_deck.sha256")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	deck := responseDeck()
	gs, ws := bufio.NewScanner(&got), bufio.NewScanner(bytes.NewReader(want))
	for i := 0; gs.Scan(); i++ {
		if !ws.Scan() {
			t.Fatalf("deck has more requests than %s", golden)
		}
		if gs.Text() != ws.Text() {
			t.Errorf("request %d (%s): response digest %s, golden %s",
				i, deck[i].body, strings.Fields(gs.Text())[1], strings.Fields(ws.Text())[1])
		}
	}
	if ws.Scan() {
		t.Errorf("deck has fewer requests than %s", golden)
	}
}
