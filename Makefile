GO ?= go

.PHONY: build test race lint fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint drives the eight invariant analyzers (genswap, ctxflow, spanpair,
# metriclabel, looseerr, lockpath, chanleak, deferloop) through the vet
# protocol, exactly as CI does.
lint:
	$(GO) build -o bin/gstored-lint ./cmd/gstored-lint
	$(GO) vet -vettool=$(CURDIR)/bin/gstored-lint ./...

# fuzz-smoke mirrors CI's 10-second-per-target fuzz window.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzParseUpdate$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzLexer$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzReadNTriples$$' -fuzztime=10s ./internal/rdf/
	$(GO) test -run=NONE -fuzz='^FuzzCFG$$' -fuzztime=10s ./internal/analysis/
	$(GO) test -run=NONE -fuzz='^FuzzMatchKey$$' -fuzztime=10s ./internal/partial/
