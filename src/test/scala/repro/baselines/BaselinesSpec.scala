package repro.baselines

import repro.SparkSpec
import repro.core._
import repro.dna.{Dna, Kmer, PackedSeq, ReadSim}

class BaselinesSpec extends SparkSpec {

  test("paper §V example: ABySS probing creates an edge with no witnessing (k+1)-mer") {
    // reads ACAT and TCAA share the 2-mer CA inside k-mers ACA and CAA, but
    // the 4-mer ACAA never occurs; probing connects them anyway.
    val reads = TestGraphs.toDs(spark, Seq("ACAT", "TCAA"))
    val k = 3
    val aca = Kmer.canonical(Kmer.pack("ACA"), k)
    val caa = Kmer.canonical(Kmer.pack("CAA"), k)
    val abyss = AbyssLike.buildNodes(reads, k, theta = 0).collect().toMap
    assert(abyss(aca).edges.exists(_.nbr == caa), "ABySS-style false edge expected")
    val dbg = DbgConstruction.nodes(DbgConstruction.build(reads, k, 0), k).collect().toMap
    assert(!dbg.get(aca).exists(_.edges.exists(_.nbr == caa)),
      "(k+1)-mer construction must not create the false edge")
  }

  test("probe-based DBG has at least the edges of the (k+1)-mer DBG") {
    val g = Dna.genome(Dna.GenomeSpec(800, longRepeats = 2, longRepeatLen = 60), 81)
    val reads = TestGraphs.toDs(spark, TestGraphs.perfectReads(g, 40, 15))
    val abyss = AbyssLike.buildNodes(reads, 15, 0).collect().toMap
    val dbg = DbgConstruction.nodes(DbgConstruction.build(reads, 15, 0), 15).collect().toMap
    for ((id, n) <- dbg; e <- n.edges)
      assert(abyss(id).edges.exists(a => a.nbr == e.nbr && a.mySide == e.mySide),
        s"probe DBG missing true edge $id -> ${e.nbr}")
  }

  test("short-repeat genomes give the probe DBG more ambiguity") {
    // short repeats of length k-1 share (k-1)-mers but no k-mers
    val g = Dna.genome(Dna.GenomeSpec(4000, longRepeats = 0,
      shortRepeats = 20, shortRepeatLen = 14), 82)
    val reads = TestGraphs.toDs(spark, TestGraphs.perfectReads(g, 40, 15)).cache()
    val amb1 = AbyssLike.buildNodes(reads, 15, 0)
      .filter(_._2.typ == VType.MN).count()
    val amb2 = DbgConstruction.nodes(DbgConstruction.build(reads, 15, 0), 15)
      .filter(_._2.typ == VType.MN).count()
    assert(amb1 > amb2, s"abyss=$amb1 dbg=$amb2")
  }

  test("SwapLike.sparsify keeps a dominant edge and drops the weak sibling") {
    def mk(id: Long, es: (Long, Int, Int, Long)*): (Long, Node) =
      (id, Node(id, PackedSeq.fromString("A" * 5),
        es.map { case (n, ms, ns, c) => Edge(n, ms, ns, c) }.toVector, 0L))
    val nodes = spark.sparkContext.parallelize(Seq(
      mk(1L, (2L, Side.Right, Side.Left, 10L), (3L, Side.Right, Side.Left, 2L)),
      mk(2L, (1L, Side.Left, Side.Right, 10L)),
      mk(3L, (1L, Side.Left, Side.Right, 2L)),
    ), 2)
    val out = SwapLike.sparsify(nodes, ratio = 1.5).collect().toMap
    assert(out(1L).edges.map(_.nbr) == Vector(2L))
    assert(out(3L).edges.isEmpty, "orphaned weak branch loses its edge")
  }

  test("SwapLike.sparsify cuts a balanced side entirely") {
    def mk(id: Long, es: (Long, Int, Int, Long)*): (Long, Node) =
      (id, Node(id, PackedSeq.fromString("A" * 5),
        es.map { case (n, ms, ns, c) => Edge(n, ms, ns, c) }.toVector, 0L))
    val nodes = spark.sparkContext.parallelize(Seq(
      mk(1L, (2L, Side.Right, Side.Left, 10L), (3L, Side.Right, Side.Left, 8L)),
      mk(2L, (1L, Side.Left, Side.Right, 10L)),
      mk(3L, (1L, Side.Left, Side.Right, 8L)),
    ), 2)
    val out = SwapLike.sparsify(nodes, ratio = 1.5).collect().toMap
    assert(out(1L).edges.isEmpty)
    assert(out(2L).edges.isEmpty && out(3L).edges.isEmpty)
  }

  test("SwapLike.sparsify removes self-loops") {
    val n = (1L, Node(1L, PackedSeq.fromString("AAAAA"),
      Vector(Edge(1L, Side.Right, Side.Left, 5L)), 0L))
    val out = SwapLike.sparsify(spark.sparkContext.parallelize(Seq(n), 1), 1.5)
      .collect().toMap
    assert(out(1L).edges.isEmpty)
  }

  test("baseline assemblies run end-to-end and PPA fragments least") {
    val g = Dna.genome(Dna.GenomeSpec(8000, longRepeats = 6, longRepeatLen = 80), 83)
    val spec = ReadSim.ReadSpec(readLen = 60, nReads = (8000 * 20 / 60).toLong,
                                errRate = 0.01)
    val reads = ReadSim.reads(spark, g, spec, 7).cache()
    val o = Assembler.Opts(k = 15, theta = 1, tipLen = 80, bubbleEditThr = 5)
    val ppa = Assembler.assemble(reads, o).sequences.collect()
    val ray = RayLike.assemble(reads, o).sequences.collect()
    val swp = SwapLike.assemble(reads, o).sequences.collect()
    assert(ppa.nonEmpty && ray.nonEmpty && swp.nonEmpty)
    // Ray keeps every fragment (no correction, no dangling drop)
    assert(ray.length >= ppa.length, s"ray=${ray.length} ppa=${ppa.length}")
  }

  test("AbyssLike kmer counting honours theta") {
    val reads = TestGraphs.toDs(spark, Seq("ACGTT", "ACGTT", "TTTTT"))
    val counts = AbyssLike.countKmers(reads, 5).collect().toMap
    assert(counts(Kmer.canonical(Kmer.pack("ACGTT"), 5)) == 2)
    val nodes = AbyssLike.buildNodes(reads, 5, theta = 1).collect()
    assert(nodes.forall(_._1 == Kmer.canonical(Kmer.pack("ACGTT"), 5)))
  }
}
