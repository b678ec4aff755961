package repro.exp

import repro.SparkSpec
import repro.core.{Assembler, ContigLabeling, TestGraphs}
import repro.dna.Datasets
import repro.pregel.PregelStats
import repro.quality.Quast

class TablesSpec extends SparkSpec {

  test("printTable1 renders one row per dataset") {
    val out = Tables.printTable1(Seq(
      Tables.DatasetRow("HC2", "Homo Sapiens Chromosome 2", 24000, 100.0, 240000)))
    assert(out.contains("HC2"))
    assert(out.contains("24000"))
    assert(out.contains("240000"))
  }

  test("printLabelingTable renders stats columns") {
    val row = Tables.LabelingRow("BI",
      PregelStats(23, 15973779L, 37200L), PregelStats(39, 32961935L, 43430L),
      longestPath = 48213L, vertices = 671419L, unambiguous = 665408L)
    val out = Tables.printLabelingTable("T", Seq(row))
    assert(out.contains("BI"))
    assert(out.contains("23") && out.contains("39"))
    assert(out.contains("15973779") && out.contains("32961935"))
    assert(out.contains("Path") && out.contains("48213"))
    assert(out.contains("Spark/Spark"))
  }

  test("printQualityTable renders reference metrics only when asked") {
    val rep = Quast.Report(10, 1000, 200, 400, 41.0,
      Some(1), Some(30), Some(5), Some(80.0), Some(0.5), Some(0.0), Some(390))
    val rows = Seq(Tables.QualityRow("PPA", rep))
    val withRef = Tables.printQualityTable("T", rows, withReference = true)
    val noRef   = Tables.printQualityTable("T", rows, withReference = false)
    assert(withRef.contains("Genome fraction"))
    assert(!noRef.contains("Genome fraction"))
    assert(noRef.contains("N50"))
  }

  test("paper parameter defaults are wired through") {
    val o = Assembler.Opts()
    assert(o.k == 31 && o.theta == 1L && o.tipLen == 80 && o.bubbleEditThr == 5)
    assert(o.method == ContigLabeling.LR && o.errorCorrection)
  }

  test("labelingPair reports the assembly's own round-1 LR run") {
    // Datasets.HC2's recipe on an 8 kb genome at the same 20x coverage.
    val ds = Datasets.HC2.copy(
      genomeSpec = Datasets.HC2.genomeSpec.copy(length = 8000, longRepeats = 1, shortRepeats = 2),
      readSpec = Datasets.HC2.readSpec.copy(nReads = 1600))
    val pair = Tables.labelingPair(spark, ds)

    val nodes = TestGraphs.nodes(spark, ds.reads(spark).collect().toSeq, k = 31, theta = 1).cache()
    val lr = ContigLabeling.labelLR(nodes)
    val groups = lr.labels.values.collect().groupBy(identity).values.map(_.length)
    val r1 = pair.round1
    assert(r1.lr.supersteps == lr.stats.supersteps && r1.lr.messages == lr.stats.messages)
    assert(r1.vertices == nodes.count())
    assert(pair.round2.vertices < r1.vertices)
    assert(r1.longestPath == groups.max)
    assert(r1.sv.supersteps > 0 && pair.round2.lr.supersteps > 0)
    nodes.unpersist()
  }

  test("PregelStats accumulate with +") {
    val s = PregelStats(2, 10, 100) + PregelStats(3, 5, 50)
    assert(s == PregelStats(5, 15, 150))
  }
}
