package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.dna.{Dna, Kmer}
import repro.pregel.PregelRuntime

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

  /** Every set slot of every built vertex, decoded into its canonical
    * (k+1)-mer and coverage. Slot X * 4 + b appends base b to the vertex's
    * canonical sequence (X = L) or to its reverse complement (X = H). The
    * two ends of each edge must agree: a (k+1)-mer is decoded at exactly
    * its canonical prefix and suffix k-mers, twice (once if it is its own
    * reverse complement), always with the same coverage.
    */
  private def builtEdgeMers(reads: Seq[String], kk: Int, theta: Long): Map[Long, Long] = {
    val decoded = DbgConstruction.build(TestGraphs.toDs(spark, reads), kk, theta).collect().toSeq
      .flatMap { v =>
        (0 until 8).filter(s => (v.bitmap & (1 << s)) != 0).zip(v.covs).map { case (s, cov) =>
          val oriented = if (s / 4 == KmerAdj.L) v.id else Kmer.rc(v.id, kk)
          (Kmer.canonical(Kmer.extend(oriented, s % 4), kk + 1), (v.id, cov))
        }
      }
    decoded.groupBy(_._1).map { case (e, at) =>
      val str  = Kmer.unpack(e, kk + 1)
      val ends = Set(str.take(kk), str.drop(1)).map(x => Kmer.canonical(Kmer.pack(x), kk))
      assert(at.map(_._2._1).toSet == ends, s"$str is decoded at the wrong vertices")
      assert(at.size == (if (Kmer.rc(e, kk + 1) == e) 1 else 2), s"$str is decoded ${at.size} times")
      val covs = at.map(_._2._2).distinct
      assert(covs.size == 1, s"the ends of $str disagree on its coverage: $covs")
      e -> covs.head
    }
  }

  /** Reads from both strands, about a third of them with one 'N'; the
    * first 200 bases are covered twice as deep, so theta = 1 keeps some
    * (k+1)-mers and drops others.
    */
  private def noisyReads(seed: Int): Seq[String] = {
    val g = Dna.genome(Dna.GenomeSpec(400), seed)
    val rnd = new scala.util.Random(seed)
    (TestGraphs.mixedStrandReads(g, 30, k) ++ TestGraphs.mixedStrandReads(g.take(200), 30, k))
      .map(r => if (rnd.nextInt(3) == 0) r.updated(rnd.nextInt(r.length), 'N') else r)
  }

  /** DuckDB's count of the exploded `edgeMers` of `reads`, HAVING > theta,
    * against the (k+1)-mers and coverages decoded from `build`'s vertices.
    */
  private def checkAgainstDuckDb(reads: Seq[String], theta: Long): Map[Long, Long] = {
    import spark.implicits._
    val kk = k // local copy: closures must not capture the suite
    assert(reads.exists(_.contains('N')))
    val exploded = TestGraphs.toDs(spark, reads).flatMap(r => DbgConstruction.edgeMers(r, kk)).toDF("emer")
    val built = builtEdgeMers(reads, kk, theta)
    Oracle.assertEquivalent(
      built.toSeq.toDF("emer", "cnt"),
      s"SELECT emer, COUNT(*) AS cnt FROM mers GROUP BY emer HAVING COUNT(*) > $theta",
      "mers" -> exploded)
    built
  }

  test("oracle: (k+1)-mer counting matches DuckDB GROUP BY") {
    assert(checkAgainstDuckDb(noisyReads(1), theta = 0).nonEmpty)
  }

  test("oracle: theta filter matches DuckDB HAVING") {
    val reads = noisyReads(2)
    val kept = checkAgainstDuckDb(reads, theta = 1)
    assert(kept.nonEmpty && kept.size < builtEdgeMers(reads, k, theta = 0).size)
  }

  test("property: any read partitioning and order builds the vertices of a plain-Map recount") {
    // k = 31: the poly-A (k+1)-mer packs to 0 and many others have bit 63
    // set; every sample has more distinct (k+1)-mers than the counting
    // table's initial positions.
    val kk = 31
    val theta = 1L
    def vertexSet(vs: Iterable[KmerAdj.KmerVertex]): Set[(Long, Int, Seq[Long])] =
      vs.map(v => (v.id, v.bitmap, v.covs.toSeq)).toSet
    def built(reads: Seq[String], parts: Int): Set[(Long, Int, Seq[Long])] = {
      val ds = spark.createDataset(spark.sparkContext.parallelize(reads, parts))(
        org.apache.spark.sql.Encoders.STRING)
      vertexSet(DbgConstruction.build(ds, kk, theta).collect())
    }
    val prop = Prop.forAllNoShrink(Gen.choose(0, 1 << 20)) { seed =>
      val rnd = new scala.util.Random(seed)
      val g = Dna.genome(Dna.GenomeSpec(4000 + rnd.nextInt(2000)), seed)
      val sampled = Seq.fill(250) {
        val start = rnd.nextInt(g.length - 100)
        val r = g.substring(start, start + 100)
        val s = if (rnd.nextBoolean()) Dna.rc(r) else r
        if (rnd.nextInt(4) == 0) s.updated(rnd.nextInt(s.length), 'N') else s
      }
      val reads = sampled ++ Seq("A" * 40, "C" + "T" * 35 + "NA", "G" + "A" * 33)
      val counts = reads.flatMap(DbgConstruction.edgeMers(_, kk)).groupBy(identity)
        .map { case (e, es) => (e, es.size.toLong) }
      val kept = counts.filter(_._2 > theta)
      assert(kept.contains(0L), "the poly-A (k+1)-mer is kept")
      assert(kept.keys.exists(_ < 0L), "some kept (k+1)-mer has bit 63 set")
      assert(counts.size > (1 << LongTable.InitialBits), "more distinct (k+1)-mers than initial positions")
      val recount = vertexSet(kept.toSeq
        .flatMap { case (e, c) => KmerAdj.incidences(e, kk).map { case (v, s) => (v, (s, c)) } }
        .groupBy(_._1)
        .map { case (v, scs) => KmerAdj.fromSlots(v, scs.map(_._2)) })
      Seq(1, 3, 7).forall(parts => built(reads, parts) == recount) &&
        built(rnd.shuffle(reads), 3) == recount
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(4).withWorkers(1).withInitialSeed(Seed(9))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
  }

  test("the round-1 graph keeps the runtime's partitioner: LR labeling shuffles nothing, merging only its groupByKey") {
    val kk = 15
    val g = Dna.genome(Dna.GenomeSpec(3000, longRepeats = 2, longRepeatLen = 80), 8)
    val nodes = TestGraphs.nodes(spark, TestGraphs.mixedStrandReads(g, 60, kk), kk).cache()
    nodes.count()
    assert(nodes.partitioner.contains(PregelRuntime.partitioner(spark.sparkContext)))
    assert(nodes.filter(_._2.typ == VType.MN).count() > 0)
    val (labels, labelBytes) = shuffleBytesOf {
      val lab = ContigLabeling.label(nodes, ContigLabeling.LR)
      assert(lab.stats.serial)
      val l = lab.labels.cache()
      l.count()
      l
    }
    assert(labelBytes == 0L)
    val (contigs, mergeBytes) = shuffleBytesByStage(
      ContigMerging.merge(nodes, labels, ContigMerging.Opts(kk)).count())
    assert(contigs > 0)
    assert(mergeBytes.size == 1, s"stages that wrote shuffle bytes: $mergeBytes")
    labels.unpersist(blocking = true)
    nodes.unpersist(blocking = true)
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
