package repro.core

import org.apache.spark.rdd.RDD
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.dna.{Dna, PackedSeq, ReadSim}

class TipRemovingSpec extends SparkSpec {

  val k = 15

  /** Ambiguous k-mer node (contig edges are added by the relink). */
  def amb(id: Long, edges: (Long, Int, Int, Long)*): Node =
    Node(id, PackedSeq.fromString("A" * k),
      edges.map { case (nbr, ms, ns, cov) => Edge(nbr, ms, ns, cov) }.toVector, 0L)

  /** Contig node of a given length with optional end neighbours. */
  def contig(j: Long, len: Int, left: Option[Long], right: Option[Long]): Node = {
    val id = Ids.contigId(1, j)
    val es = left.map(l => Edge(l, Side.Left, Side.Right, 10)).toVector ++
             right.map(r => Edge(r, Side.Right, Side.Left, 10)).toVector
    Node(id, PackedSeq.fromString("A" * len), es, 10L)
  }

  def rdd(ns: Node*): RDD[(Long, Node)] = rddIn(2, ns: _*)

  def rddIn(partitions: Int, ns: Node*): RDD[(Long, Node)] =
    spark.sparkContext.parallelize(ns.map(n => (n.id, n)), partitions)

  def surviving(ambs: Seq[Node], contigs: Seq[Node], tipLen: Int = 80): Map[Long, Node] =
    TipRemoving.run(rdd(ambs: _*), rdd(contigs: _*), k, tipLen).nodes.collect().toMap

  test("relink attaches contig edges to ambiguous endpoints and drops stale ones") {
    val x = amb(10L, (11L, Side.Right, Side.Left, 5), // edge to another ambiguous
                     (999L, Side.Left, Side.Right, 5)) // stale: merged-away k-mer
    val y = amb(11L, (10L, Side.Left, Side.Right, 5))
    val c = contig(1, 200, left = Some(10L), right = Some(11L))
    // no node is <1>, so the output is the relinked graph
    val relinked = surviving(Seq(x, y), Seq(c))
    val nx = relinked(10L)
    assert(nx.edges.exists(_.nbr == 11L), "ambiguous-ambiguous edge kept")
    assert(!nx.edges.exists(_.nbr == 999L), "stale edge dropped")
    val ce = nx.edges.find(_.nbr == c.id)
    assert(ce.isDefined, "contig edge attached")
    // the helper's left-end edge carries nbrSide=Right: x sees it on its Right
    assert(ce.get.mySide == Side.Right)
    assert(ce.get.nbrSide == Side.Left)
  }

  test("property: the relink equals a driver-side relink of the same round-1 graph") {
    // With tipLen = 0 no node starts a REQUEST, so the run's output is the
    // relinked ambiguous k-mers plus the contigs. The reference relinks with
    // plain Maps: an ambiguous k-mer keeps its edges to ambiguous k-mers and
    // gains, for each contig end edge naming it, the edge seen from its side.
    // Edges compare as sorted sequences, so a lost or duplicated parallel
    // edge fails.
    def reference(amb: Map[Long, Node], contigs: Seq[Node]): Map[Long, Node] = {
      val attached = contigs.flatMap(c => c.edges.map(e => e.nbr -> Edge(c.id, e.nbrSide, e.mySide, e.cov)))
        .groupBy(_._1)
      amb.map { case (id, n) =>
        id -> n.copy(edges = n.edges.filter(e => amb.contains(e.nbr)) ++
                             attached.getOrElse(id, Nil).map(_._2))
      } ++ contigs.map(c => c.id -> c)
    }
    def view(g: Map[Long, Node]) = g.map { case (id, n) => id -> (n.seq.toString, TestGraphs.sortedEdges(n)) }
    val cases = for {
      length     <- Gen.choose(3000, 6000)
      repeats    <- Gen.choose(2, 6)
      repeatLen  <- Gen.choose(40, 200)
      genomeSeed <- Gen.choose(1L, 1000000L)
      readSeed   <- Gen.choose(1L, 1000000L)
    } yield (Dna.GenomeSpec(length, longRepeats = repeats, longRepeatLen = repeatLen), genomeSeed, readSeed)
    val opts = Assembler.Opts(k = k, theta = 1, errorCorrection = false)
    val prop = Prop.forAllNoShrink(cases) { case (spec, genomeSeed, readSeed) =>
      val g = Dna.genome(spec, genomeSeed)
      val readSpec = ReadSim.ReadSpec(readLen = 60, nReads = g.length * 15L / 60, errRate = 0.01, nRate = 0.0005)
      val res = Assembler.assemble(ReadSim.reads(spark, g, readSpec, readSeed), opts)
      val amb = res.round1.graph.filter(_._2.typ == VType.MN).cache()
      val bubbled = BubbleFiltering.filter(res.round1Contigs, 5).cache()
      val want = reference(amb.collect().toMap, bubbled.values.collect().toSeq)
      val run = TipRemoving.run(amb, bubbled, k, tipLen = 0)
      val got = run.nodes.collect().toMap
      val attached = want.values.exists(n => Ids.isKmer(n.id) && n.edges.exists(e => Ids.isContig(e.nbr)))
      (attached :| "some ambiguous k-mer gains a contig edge") &&
        ((view(got) == view(want)) :| "the relinked graphs differ") &&
        ((run.stats.supersteps == 2) :| s"${run.stats.supersteps} supersteps, not push and relink")
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(3).withInitialSeed(Seed(43))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
  }

  test("a short dangling contig (a tip) is deleted and the hub loses its edge") {
    // hub X is ambiguous: main path via contigs c1, c2; tip c3 (short dangling)
    val x  = amb(10L)
    val c1 = contig(1, 300, left = None, right = Some(10L))
    val c2 = contig(2, 300, left = Some(10L), right = None)
    val c3 = contig(3, 40, left = Some(10L), right = None) // 40 <= 80: tip
    val out = surviving(Seq(x), Seq(c1, c2, c3))
    assert(!out.contains(c3.id), "tip contig deleted")
    assert(out.contains(c1.id) && out.contains(c2.id))
    assert(!out(10L).edges.exists(_.nbr == c3.id), "hub edge to tip removed")
  }

  test("a long dangling contig survives") {
    val x  = amb(10L)
    val c1 = contig(1, 300, left = None, right = Some(10L))
    val c2 = contig(2, 300, left = Some(10L), right = None)
    val c3 = contig(3, 200, left = Some(10L), right = None) // 200 > 80
    val out = surviving(Seq(x), Seq(c1, c2, c3))
    assert(out.contains(c3.id))
    assert(out(10L).edges.exists(_.nbr == c3.id))
  }

  test("cascading tips: removing one exposes and removes the next (multi-phase)") {
    // X(MN) has exactly: an edge to hub path?  Build: c1 - X - c2 and X - t (tip).
    // After t dies, X becomes <1-1>: no new request. Build a deeper cascade:
    // Y(MN): edges to t2 (short) and X; X: edges to Y and t1(short).
    // After t1 dies, X -> <1>, X requests toward Y with cum=len(t?)...
    val x  = amb(10L)
    val y  = amb(11L)
    val t1 = contig(1, 30, left = Some(10L), right = None)
    val cXY = contig(2, 20, left = Some(10L), right = Some(11L))
    val main1 = contig(3, 400, left = None, right = Some(11L))
    val main2 = contig(4, 400, left = Some(11L), right = None)
    val out = surviving(Seq(x, y), Seq(t1, cXY, main1, main2))
    // phase 1: t1 (30 <= 80) deleted; X becomes <1> with only cXY
    // phase 2: X requests via cXY to Y: cum = 15 + (20-14) ... <= 80: deleted
    assert(!out.contains(t1.id))
    assert(!out.contains(cXY.id), "second-phase tip removed")
    assert(!out.contains(10L) || out(10L).edges.isEmpty ||
           out.get(10L).forall(_.edges.forall(e => e.nbr != cXY.id)))
    assert(out.contains(main1.id) && out.contains(main2.id))
    assert(out(11L).edges.map(_.nbr).toSet ==
           Set(main1.id, main2.id), "Y keeps only the main path")
  }

  test("an isolated long contig is untouched") {
    val c = contig(1, 500, None, None)
    val out = surviving(Seq.empty, Seq(c))
    assert(out.contains(c.id))
  }

  test("a tip with two dead-ends: DELETEs meet in the middle") {
    // isolated chain: t1(<1>) - X? No ambiguity at all: c1 - c2 joined by an
    // ambiguous vertex is impossible; use k-mer relay: a(One) - m(OneOne) - b(One)
    val a = amb(20L, (21L, Side.Right, Side.Left, 3))
    val m = amb(21L, (20L, Side.Left, Side.Right, 3), (22L, Side.Right, Side.Left, 3))
    val b = amb(22L, (21L, Side.Left, Side.Right, 3))
    assert(a.typ == VType.One && m.typ == VType.OneOne && b.typ == VType.One)
    // total length: 15 + 1 + 1 = 17 <= 80: the whole chain is a tip
    val out = surviving(Seq(a, m, b), Seq.empty)
    assert(out.isEmpty)
  }

  test("a two-dead-end chain longer than the threshold survives") {
    val a = amb(20L, (21L, Side.Right, Side.Left, 3))
    val m = amb(21L, (20L, Side.Left, Side.Right, 3), (22L, Side.Right, Side.Left, 3))
    val b = amb(22L, (21L, Side.Left, Side.Right, 3))
    val out = surviving(Seq(a, m, b), Seq.empty, tipLen = 10)
    assert(out.keySet == Set(20L, 21L, 22L))
  }

  test("hub with several short tips loses them all and can become unambiguous") {
    val x  = amb(10L)
    val main1 = contig(1, 400, left = None, right = Some(10L))
    val main2 = contig(2, 400, left = Some(10L), right = None)
    val t1 = contig(3, 30, left = Some(10L), right = None)
    val t2 = contig(4, 50, left = Some(10L), right = None)
    val out = surviving(Seq(x), Seq(main1, main2, t1, t2))
    assert(!out.contains(t1.id) && !out.contains(t2.id))
    assert(out(10L).edges.map(_.nbr).toSet == Set(main1.id, main2.id))
    assert(out(10L).typ == VType.OneOne, "hub became unambiguous for round 2")
  }

  test("an <m-n> hub handles its shortest pending tip first, whatever the IDs or partitioning") {
    // hub X: a 400-base arm on its Left, tips of 30 and 50 bases on its
    // Right; both tips' REQUESTs reach X in superstep 1. Deleting the 30-base
    // tip leaves X <1-1>, so the 50-base tip's REQUEST relays on and dies.
    val x   = amb(10L)
    val arm = contig(1, 400, left = None, right = Some(10L))
    for ((j30, j50) <- Seq((2L, 3L), (3L, 2L)); parts <- Seq(1, 3)) {
      val t30 = contig(j30, 30, left = Some(10L), right = None)
      val t50 = contig(j50, 50, left = Some(10L), right = None)
      val out = TipRemoving.run(rddIn(parts, x), rddIn(parts, arm, t30, t50), k, 80)
        .nodes.collect().toMap
      val clue = s"30-base tip ${t30.id}, 50-base tip ${t50.id}, $parts partitions"
      assert(!out.contains(t30.id), clue)
      assert(out.contains(t50.id) && out.contains(arm.id), clue)
      assert(out(10L).edges.map(_.nbr).toSet == Set(arm.id, t50.id), clue)
      assert(out(10L).typ == VType.OneOne, clue)
    }
  }

  test("a REQUEST stops once its tip passes the threshold, whatever the chain's length") {
    // hub X (<m-n>) with a main path of two long contigs and a tip of
    // ambiguous k-mers: `len` <1-1> k-mers, then a <1> k-mer. The <1>
    // k-mer's REQUEST grows by 1 per <1-1> k-mer and passes tipLen = 80 at
    // the 66th, so the tip survives and the run stops there, for 150 and for
    // 300 chain vertices.
    def chainRun(len: Int) = {
      val ids = 10L +: (100L to 100L + len)
      val hub = amb(10L, (ids(1), Side.Right, Side.Left, 3))
      val chain = (1 to len + 1).map { i =>
        val prev = (ids(i - 1), Side.Left, Side.Right, 3L)
        if (i <= len) amb(ids(i), prev, (ids(i + 1), Side.Right, Side.Left, 3L)) else amb(ids(i), prev)
      }
      val main1 = contig(1, 400, left = None, right = Some(10L))
      val main2 = contig(2, 400, left = Some(10L), right = None)
      assert(chain.init.forall(_.typ == VType.OneOne) && chain.last.typ == VType.One)
      val res = TipRemoving.run(rdd(hub +: chain: _*), rdd(main1, main2), k, 80)
      val out = res.nodes.collect().toMap
      assert(out.keySet == ids.toSet + main1.id + main2.id, s"chain of $len")
      assert(out(10L).edges.map(_.nbr).toSet == Set(ids(1), main1.id, main2.id), s"chain of $len")
      res.stats.supersteps
    }
    assert(chainRun(150) == chainRun(300))
  }

  test("stats report a terminating Pregel run") {
    val x = amb(10L)
    val c = contig(1, 40, left = Some(10L), right = None)
    val res = TipRemoving.run(rdd(x), rdd(c), k, 80)
    res.nodes.count()
    assert(res.stats.supersteps >= 2)
    assert(res.stats.messages >= 2) // REQUEST + DELETE at least
  }
}
