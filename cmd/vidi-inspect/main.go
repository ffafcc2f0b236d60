// vidi-inspect examines a recorded trace: channel summary, performance
// profile (the record/replay profiling use case the paper motivates), and
// per-channel transaction dumps.
//
// Usage:
//
//	vidi-inspect -trace sha.vidt                 # summary + profile
//	vidi-inspect -trace sha.vidt -dump pcis.W -limit 10
package main

import (
	"flag"
	"fmt"
	"os"

	"vidi/internal/profile"
	"vidi/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file to inspect")
	dump := flag.String("dump", "", "dump the transactions of this channel")
	limit := flag.Int("limit", 20, "maximum transactions to dump")
	noProfile := flag.Bool("no-profile", false, "skip the performance profile")
	flag.Parse()

	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	tr, err := trace.LoadAuto(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidi-inspect:", err)
		os.Exit(1)
	}
	fmt.Print(tr.Summary())
	if !*noProfile {
		fmt.Println()
		fmt.Print(profile.Analyze(tr).String())
	}
	if *dump != "" {
		ci := tr.Meta.ChannelByName(*dump)
		if ci < 0 {
			fmt.Fprintf(os.Stderr, "vidi-inspect: no channel %q in trace\n", *dump)
			os.Exit(1)
		}
		fmt.Printf("\ntransactions on %s (%s, width %d):\n",
			*dump, tr.Meta.Channels[ci].Dir, tr.Meta.Channels[ci].Width)
		txns := tr.Transactions(ci)
		for i, tx := range txns {
			if i >= *limit {
				fmt.Printf("  ... (%d more)\n", len(txns)-i)
				break
			}
			content := "(content not recorded)"
			if tx.Content != nil {
				content = fmt.Sprintf("% x", tx.Content)
				if len(content) > 100 {
					content = content[:100] + "…"
				}
			}
			fmt.Printf("  #%-4d start@pkt %-6d end@pkt %-6d %s\n", tx.Ordinal, tx.StartPacket, tx.EndPacket, content)
		}
	}
}
