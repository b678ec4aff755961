package repro.core

import repro.{Oracle, SparkSpec}
import repro.dna.{Dna, Kmer}

class DbgConstructionSpec extends SparkSpec {

  val k = 5

  test("edgeMers: reads shorter than k+1 contribute nothing") {
    assert(DbgConstruction.edgeMers("ACGT", 5).isEmpty)
    assert(DbgConstruction.edgeMers("ACGTAN", 5).isEmpty) // both runs too short
  }

  test("edgeMers: sliding-window (k+1)-mers, canonicalised") {
    val mers = DbgConstruction.edgeMers("ATTGCA", 2) // paper Fig 4 cut style
    val expect = Seq("ATT", "TTG", "TGC", "GCA")
      .map(s => Kmer.canonical(Kmer.pack(s), 3))
    assert(mers == expect)
  }

  test("edgeMers is strand-invariant") {
    val r = "ACGGTTACCTAGG"
    assert(DbgConstruction.edgeMers(r, k).sorted ==
           DbgConstruction.edgeMers(Dna.rc(r), k).sorted)
  }

  test("oracle: (k+1)-mer counting matches DuckDB GROUP BY") {
    import spark.implicits._
    val kk = k // local copy: closures must not capture the suite
    val reads = TestGraphs.toDs(spark,
      TestGraphs.perfectReads(Dna.genome(Dna.GenomeSpec(400), 1), 30, kk))
    val exploded = reads.flatMap(r => DbgConstruction.edgeMers(r, kk)).toDF("emer")
    val counted = DbgConstruction.countEdgeMers(reads, k)
      .withColumnRenamed("cnt", "cnt")
    Oracle.assertEquivalent(
      counted,
      "SELECT emer, COUNT(*) AS cnt FROM mers GROUP BY emer",
      "mers" -> exploded)
  }

  test("oracle: theta filter matches DuckDB HAVING") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val kk = k
    val reads = TestGraphs.toDs(spark,
      TestGraphs.perfectReads(Dna.genome(Dna.GenomeSpec(300), 2), 25, kk) ++
      TestGraphs.perfectReads(Dna.genome(Dna.GenomeSpec(300), 2), 25, kk))
    val exploded = reads.flatMap(r => DbgConstruction.edgeMers(r, kk)).toDF("emer")
    val filtered = DbgConstruction.countEdgeMers(reads, k).filter(col("cnt") > 1)
    Oracle.assertEquivalent(
      filtered,
      "SELECT emer, COUNT(*) AS cnt FROM mers GROUP BY emer HAVING COUNT(*) > 1",
      "mers" -> exploded)
  }

  test("a repeat-free genome yields a path: all vertices <1> or <1-1>") {
    val g = Dna.genome(Dna.GenomeSpec(300, longRepeats = 0, shortRepeats = 0), 3)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, 15), 15).collect()
    assert(ns.length == g.length - 15 + 1 - /*duplicate canonicals*/ 0)
    val types = ns.map(_._2.typ).groupBy(identity).view.mapValues(_.length).toMap
    assert(types.getOrElse(VType.One, 0) == 2) // the two genome ends
    assert(types.getOrElse(VType.MN, 0) == 0)
  }

  test("vertex count equals distinct canonical k-mers of the reads") {
    val g = Dna.genome(Dna.GenomeSpec(200), 4)
    val reads = TestGraphs.perfectReads(g, 30, k)
    val expected = reads
      .flatMap(r => (0 to r.length - k).map(i =>
        Kmer.canonical(Kmer.pack(r.substring(i, i + k)), k)))
      .distinct.size
    val got = TestGraphs.nodes(spark, reads, k).count()
    assert(got == expected)
  }

  test("forward-only and mixed-strand reads build the identical DBG") {
    val g = Dna.genome(Dna.GenomeSpec(250), 5)
    val a = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 30, k), k)
      .collect().sortBy(_._1)
    val b = TestGraphs.nodes(spark, TestGraphs.mixedStrandReads(g, 30, k), k)
      .collect().sortBy(_._1)
    assert(a.map(_._1).toSeq == b.map(_._1).toSeq)
    for (((_, na), (_, nb)) <- a.zip(b))
      assert(na.edges.toSet == nb.edges.toSet, s"node ${na.id}")
  }

  test("edge coverage counts every read containing the (k+1)-mer") {
    val reads = Seq.fill(7)("ACGTTGC") // k=5: (k+1)-mers ACGTTG, CGTTGC
    val ns = TestGraphs.nodes(spark, reads, k).collect().toMap
    val v = Kmer.canonical(Kmer.pack("ACGTT"), k)
    val edge = ns(v).edges.find(_.nbr == Kmer.canonical(Kmer.pack("CGTTG"), k))
    assert(edge.isDefined)
    assert(edge.get.cov == 7L)
  }

  test("theta filters low-coverage (k+1)-mers") {
    val reads = Seq.fill(3)("ACGTTGC") ++ Seq("TTTTTAC") // second: coverage 1
    val ns0 = TestGraphs.nodes(spark, reads, k, theta = 0).collect()
    val ns1 = TestGraphs.nodes(spark, reads, k, theta = 1).collect()
    assert(ns0.length > ns1.length)
    assert(ns1.forall(_._2.edges.forall(_.cov > 1)))
  }

  test("adjacency is symmetric: every edge appears from both endpoints") {
    val g = Dna.genome(Dna.GenomeSpec(300, longRepeats = 1, longRepeatLen = 60), 6)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 30, k), k).collect().toMap
    for ((id, n) <- ns; e <- n.edges if e.nbr != id) {
      val back = ns(e.nbr).edges.find(b =>
        b.nbr == id && b.mySide == e.nbrSide && b.nbrSide == e.mySide)
      assert(back.isDefined, s"edge $id -> ${e.nbr} has no mirror")
      assert(back.get.cov == e.cov)
    }
  }

  test("k must be odd and within [3, 31]") {
    val reads = TestGraphs.toDs(spark, Seq("ACGTACGT"))
    intercept[IllegalArgumentException](DbgConstruction.build(reads, 4, 0))
    intercept[IllegalArgumentException](DbgConstruction.build(reads, 33, 0))
  }

  test("reads with N contribute only their ACGT runs") {
    val clean = Seq("ACGTTGCAA")
    val noisy = Seq("ACGTTGCAA", "NNACGNN") // the run ACG is < k+1, ignored
    val a = TestGraphs.nodes(spark, clean, k).count()
    val b = TestGraphs.nodes(spark, noisy, k).count()
    assert(a == b)
  }
}
