package repro.core

import org.apache.spark.rdd.RDD
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.dna.Dna
import repro.exp.Tables

class ContigLabelingSpec extends SparkSpec {

  val k = 15

  def labelsOf(r: ContigLabeling.Result): Map[Long, Long] = r.labels.collect().toMap

  /** Random genomes: length, repeat count and repeat length drawn. */
  val genomes: Gen[(Dna.GenomeSpec, Long)] = for {
    len     <- Gen.choose(300, 1500)
    nLong   <- Gen.choose(0, 6)
    longLen <- Gen.choose(30, 120)
    nShort  <- Gen.choose(0, 3)
    seed    <- Gen.choose(0L, 1000000L)
  } yield (Dna.GenomeSpec(len, longRepeats = nLong, longRepeatLen = longLen,
                          shortRepeats = nShort, shortRepeatLen = 20), seed)

  /** Check `body` on `n` random genomes' DBGs (no shrinking: each case
    * runs Spark jobs).
    */
  def forRandomGraphs(n: Int, seed: Long)(body: RDD[(Long, Node)] => Unit): Unit = {
    var ambiguousCases = 0
    val prop = Prop.forAllNoShrink(genomes) { case (spec, gSeed) =>
      val g  = Dna.genome(spec, gSeed)
      val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
      try {
        if (ns.filter(_._2.typ == VType.MN).count() > 0) ambiguousCases += 1
        body(ns)
      } finally ns.unpersist()
      Prop.passed
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(n).withInitialSeed(Seed(seed))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
    assert(ambiguousCases > 0, "no random genome had an ambiguous vertex")
  }

  test("repeat-free genome: every unambiguous vertex gets one shared label (LR)") {
    val g  = Dna.genome(Dna.GenomeSpec(300, longRepeats = 0, shortRepeats = 0), 1)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val lr = labelsOf(ContigLabeling.labelLR(ns))
    assert(lr.size == ns.count())
    assert(lr.values.toSet.size == 1)
  }

  test("LR labels a path by its smaller contig-end vertex ID") {
    val g  = Dna.genome(Dna.GenomeSpec(200, longRepeats = 0, shortRepeats = 0), 2)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val ends = ns.filter(_._2.typ == VType.One).keys.collect()
    assert(ends.length == 2)
    val lr = labelsOf(ContigLabeling.labelLR(ns))
    assert(lr.values.toSet == Set(ends.min))
  }

  test("SV labels a path by its smallest vertex ID") {
    val g  = Dna.genome(Dna.GenomeSpec(200, longRepeats = 0, shortRepeats = 0), 3)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val sv = labelsOf(ContigLabeling.labelSV(ns))
    assert(sv.values.toSet == Set(ns.keys.collect().min))
  }

  test("LR and SV induce the same partition on a repeat-rich genome") {
    val g = Dna.genome(Dna.GenomeSpec(2000, longRepeats = 8, longRepeatLen = 100), 5)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    assert(ns.filter(_._2.typ == VType.MN).count() > 0, "genome should have ambiguity")
    val lr = labelsOf(ContigLabeling.labelLR(ns))
    val sv = labelsOf(ContigLabeling.labelSV(ns))
    assert(TestGraphs.samePartition(lr, sv))
  }

  test("LR/SV partitions also match union-find components") {
    val g = Dna.genome(Dna.GenomeSpec(1200, longRepeats = 5, longRepeatLen = 80), 6)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val uf = TestGraphs.unambiguousComponents(ns)
    assert(TestGraphs.samePartition(labelsOf(ContigLabeling.labelLR(ns)), uf))
    assert(TestGraphs.samePartition(labelsOf(ContigLabeling.labelSV(ns)), uf))
  }

  test("property: LR, S-V and union-find induce the same partition on random genomes") {
    forRandomGraphs(4, seed = 2018) { ns =>
      val uf = TestGraphs.unambiguousComponents(ns)
      assert(TestGraphs.samePartition(labelsOf(ContigLabeling.labelLR(ns)), uf), "LR")
      assert(TestGraphs.samePartition(labelsOf(ContigLabeling.labelSV(ns)), uf), "S-V")
    }
  }

  /** Every vertex receives exactly its ⟨m-n⟩ neighbours' IDs, and the
    * message count is the ⟨m-n⟩ vertices' edge total.
    */
  def assertExactEndDelivery(ns: RDD[(Long, Node)]): Unit = {
    val nodes = ns.collect().toMap
    val mn = nodes.filter(_._2.typ == VType.MN).keySet
    val (recv, msgCount) = ContigLabeling.ambiguousNeighbors(ns)
    val got = recv.collect().toMap
    for ((id, n) <- nodes) {
      val expect = n.edges.map(_.nbr).filter(mn.contains).toSet
      assert(got.getOrElse(id, Set.empty) == expect, s"vertex $id")
    }
    assert(got.keySet.subsetOf(nodes.keySet))
    assert(msgCount == mn.toSeq.map(nodes(_).edges.size.toLong).sum)
  }

  test("ambiguousNeighbors delivers exactly the MN-adjacent IDs") {
    val g = Dna.genome(Dna.GenomeSpec(1200, longRepeats = 4, longRepeatLen = 80), 43)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    assert(ns.filter(_._2.typ == VType.MN).count() > 0, "genome should have ambiguity")
    assertExactEndDelivery(ns)
  }

  test("property: contig-end recognition is exact on random genomes") {
    forRandomGraphs(6, seed = 43)(assertExactEndDelivery)
  }

  test("ambiguous vertices receive no label") {
    val g = Dna.genome(Dna.GenomeSpec(1500, longRepeats = 6, longRepeatLen = 90), 7)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val amb = ns.filter(_._2.typ == VType.MN).keys.collect().toSet
    assert(amb.nonEmpty)
    val lr = labelsOf(ContigLabeling.labelLR(ns))
    assert(lr.keySet.intersect(amb).isEmpty)
    val sv = labelsOf(ContigLabeling.labelSV(ns))
    assert(sv.keySet.intersect(amb).isEmpty)
  }

  test("a cycle of <1-1> vertices triggers the S-V fallback and is labeled") {
    // circular genome: cover genome+genome so the DBG is a pure cycle
    val g = Dna.genome(Dna.GenomeSpec(120, longRepeats = 0, shortRepeats = 0), 8)
    val circ = g + g.substring(0, 40)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(circ, 40, k), k).cache()
    assert(ns.collect().forall(_._2.typ == VType.OneOne), "expected a pure cycle")
    val lr = labelsOf(ContigLabeling.labelLR(ns))
    assert(lr.size == ns.count())
    assert(lr.values.toSet.size == 1)
  }

  test("LR terminates within the logarithmic superstep bound") {
    val g  = Dna.genome(Dna.GenomeSpec(600, longRepeats = 0, shortRepeats = 0), 9)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val n  = ns.count()
    val res = ContigLabeling.labelLR(ns)
    val logN = 64 - java.lang.Long.numberOfLeadingZeros(n)
    assert(res.stats.supersteps <= 2 * (logN + 3) + 2,
           s"supersteps=${res.stats.supersteps} for n=$n")
    // Table II's path column: the one path has ℓ = n vertices, on which
    // min-label propagation needs at least ⌈(ℓ−1)/2⌉ = ⌊ℓ/2⌋ iterations.
    val pathLen = Tables.longestPath(res.labels)
    assert(pathLen == n, "a repeat-free genome is one path")
    assert(pathLen / 2 > res.stats.supersteps, s"ℓ=$pathLen vs LR supersteps")
  }

  test("initialPairs flips terminal sides and keeps unambiguous neighbours") {
    val g  = Dna.genome(Dna.GenomeSpec(150, longRepeats = 0, shortRepeats = 0), 10)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val (pairs, _) = ContigLabeling.initialPairs(ns)
    val byId = pairs.collect().toMap
    val nodes = ns.collect().toMap
    for ((id, st) <- byId) {
      val n = nodes(id)
      Seq((st.p0, Side.Left), (st.p1, Side.Right)).foreach { case (p, side) =>
        n.edgesOn(side) match {
          case Vector(e) => assert(p == e.nbr, s"vertex $id side $side")
          case _         => assert(p == Ids.flip(id), s"vertex $id side $side")
        }
      }
    }
  }

  test("single-vertex contigs (flanked by ambiguity) label themselves") {
    // manual graph: amb -- v -- amb, with v the only unambiguous vertex
    val nodes = TestGraphs.manualGraph(spark,
      Map(1L -> k, 2L -> k, 3L -> k, 4L -> k, 5L -> k, 6L -> k, 7L -> k),
      Seq(
        // vertex 1 ambiguous: two edges on its right side
        (1L, Side.Right, 2L, Side.Left, 1L), (1L, Side.Right, 4L, Side.Left, 1L),
        // vertex 3 ambiguous: two edges on its left side
        (2L, Side.Right, 3L, Side.Left, 1L), (5L, Side.Right, 3L, Side.Left, 1L),
        // fillers to keep 4,5 connected
        (4L, Side.Right, 6L, Side.Left, 1L), (7L, Side.Right, 5L, Side.Left, 1L),
      ), k)
    val byType = nodes.collect().toMap
    assert(byType(2L).typ == VType.OneOne)
    assert(byType(1L).typ == VType.MN && byType(3L).typ == VType.MN)
    val lr = labelsOf(ContigLabeling.labelLR(nodes))
    assert(lr(2L) == 2L) // its own (smaller==only) end
    val sv = labelsOf(ContigLabeling.labelSV(nodes))
    assert(sv(2L) == 2L)
  }

  test("LR sends fewer messages than SV on the same graph") {
    val g = Dna.genome(Dna.GenomeSpec(3000, longRepeats = 10, longRepeatLen = 80), 11)
    val ns = TestGraphs.nodes(spark, TestGraphs.perfectReads(g, 40, k), k).cache()
    val lr = ContigLabeling.labelLR(ns)
    val sv = ContigLabeling.labelSV(ns)
    lr.labels.count(); sv.labels.count()
    assert(lr.stats.messages < sv.stats.messages,
           s"LR=${lr.stats.messages} SV=${sv.stats.messages}")
  }
}
