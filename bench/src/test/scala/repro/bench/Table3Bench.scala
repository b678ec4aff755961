package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Table III -- LR vs S-V for labeling contigs (the second labeling round,
  * after error correction, on the mixed contig/k-mer graph).
  *
  * Paper:
  *   HC-X:  LR 32 SS /  2.16M msgs / 0.51s   S-V 44 SS /   5.28M msgs /  0.67s
  *   HC-2:  LR 12 SS /  1.05M msgs / 0.20s   S-V 37 SS /   2.74M msgs /  0.50s
  *   HC-14: LR 22 SS /  6.04M msgs / 1.06s   S-V 51 SS /  22.46M msgs /  1.83s
  *   BI:    LR 38 SS / 74.36M msgs / 3.77s   S-V 65 SS / 280.04M msgs / 10.26s
  * Shape: LR still wins everywhere, and the round-2 message counts are
  * orders of magnitude below Table II's (the merge shrank the graph).
  */
class Table3Bench extends SparkSpec {

  test("Table III -- LR vs S-V for labeling contigs") {
    val pairs = LabelingRuns.pairs(spark)
    val rows  = pairs.map(_.round2)
    println(Tables.printLabelingTable("Table III -- LR vs S-V, labeling contigs", rows))

    for ((p, r) <- pairs.zip(rows)) {
      assert(r.lr.supersteps <= r.sv.supersteps,
        s"${r.dataset}: LR supersteps ${r.lr.supersteps} > SV ${r.sv.supersteps}")
      assert(r.lr.messages < r.sv.messages,
        s"${r.dataset}: LR messages ${r.lr.messages} !< SV ${r.sv.messages}")
      // the paper's in-text claim: merging shrinks the vertex set massively
      assert(p.round2.vertices < p.round1.vertices / 5,
        s"${r.dataset}: graph2 ${p.round2.vertices} vs DBG ${p.round1.vertices}")
      // and hence round-2 messaging is far below round-1 messaging
      assert(r.lr.messages < p.round1.lr.messages / 5,
        s"${r.dataset}: round2 msgs ${r.lr.messages} vs round1 ${p.round1.lr.messages}")
    }
    // report the merge-round vertex counts (EXPERIMENTS.md in-text numbers)
    println("Vertex counts across merge rounds (DBG -> round-2 graph -> final contigs):")
    pairs.foreach(p => println(
      f"  ${p.round1.dataset}%-6s ${p.round1.vertices}%10d -> ${p.round2.vertices}%9d -> ${p.finalContigs}%8d"))
  }
}
