GO ?= go

.PHONY: all build test bench fuzz check same-output

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz=FuzzRuleCompile -fuzztime=10s ./internal/rules
	$(GO) test -fuzz=FuzzProcessBatch -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=10s ./internal/campaign

check:
	sh scripts/check.sh

# Output-identity gate: netfi's deterministic reports must match BASE's
# byte for byte (default: the last commit).
BASE ?= HEAD
same-output:
	sh scripts/sameoutput.sh $(BASE)
