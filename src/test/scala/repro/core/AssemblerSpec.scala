package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.dna.{Dna, ReadSim}
import repro.pregel.{PregelRuntime, PregelStats}
import repro.quality.Quast

class AssemblerSpec extends SparkSpec {

  val k = 15
  def opts(theta: Long = 1, method: ContigLabeling.Method = ContigLabeling.LR) =
    Assembler.Opts(k = k, theta = theta, tipLen = 80, bubbleEditThr = 5, method = method)

  val genome = Dna.genome(
    Dna.GenomeSpec(8000, longRepeats = 6, longRepeatLen = 80, shortRepeats = 0), 71)

  def noisyReads(coverage: Double, err: Double, seed: Long = 5) = {
    val spec = ReadSim.ReadSpec(readLen = 60,
      nReads = (genome.length * coverage / 60).toLong, errRate = err, nRate = 0.0005)
    ReadSim.reads(spark, genome, spec, seed)
  }

  test("error-free reads assemble the genome at ~full fraction") {
    val reads = TestGraphs.toDs(spark, TestGraphs.perfectReads(genome, 60, k))
    val res = Assembler.assemble(reads, opts(theta = 0))
    // minLen 50: keep the short inter-repeat contigs this 8 kb genome produces
    val rep = Quast.evaluate(res.sequences, Some(genome), k, minLen = 50)
    assert(rep.genomeFraction.exists(_ > 90.0), s"gf=${rep.genomeFraction}")
    assert(rep.misassemblies.contains(0L))
    assert(rep.mismatchesPer100kbp.contains(0.0))
  }

  test("noisy reads assemble with high genome fraction and few mismatches") {
    val res = Assembler.assemble(noisyReads(20, 0.01), opts(theta = 1))
    val rep = Quast.evaluate(res.sequences, Some(genome), k, minLen = 200)
    assert(rep.genomeFraction.exists(_ > 70.0), s"gf=${rep.genomeFraction}")
    assert(rep.mismatchesPer100kbp.exists(_ < 200.0), s"mm=${rep.mismatchesPer100kbp}")
  }

  test("the second merge round does not reduce N50 (paper: it roughly doubles)") {
    val res = Assembler.assemble(noisyReads(20, 0.01), opts(theta = 1))
    def n50of(c: org.apache.spark.rdd.RDD[(Long, Node)]) =
      Quast.n50(c.values.map(_.seqLen.toLong).collect().toSeq)
    assert(n50of(res.finalContigs) >= n50of(res.round1Contigs))
  }

  test("error correction shrinks the graph (paper's in-text vertex counts)") {
    val res = Assembler.assemble(noisyReads(20, 0.01), opts(theta = 1))
    assert(res.graph2Vertices < res.dbgVertices,
      s"${res.graph2Vertices} vs ${res.dbgVertices}")
    assert(res.labeling2.isDefined && res.tipStats.isDefined)
  }

  test("errorCorrection=false returns the round-1 contigs as final") {
    val reads = noisyReads(15, 0.005)
    val res = Assembler.assemble(reads, opts().copy(errorCorrection = false))
    assert(res.finalContigs.count() == res.round1Contigs.count())
    assert(res.labeling2.isEmpty && res.tipStats.isEmpty)
  }

  test("LR and SV produce the same final assembly") {
    val reads = noisyReads(15, 0.01, seed = 9).cache()
    def canon(s: String) = Seq(s, Dna.rc(s)).min
    val a = Assembler.assemble(reads, opts(method = ContigLabeling.LR))
      .sequences.map(canon).collect().sorted.toSeq
    val b = Assembler.assemble(reads, opts(method = ContigLabeling.SV))
      .sequences.map(canon).collect().sorted.toSeq
    assert(a == b)
  }

  test("with theta=0, tips and bubbles from errors are corrected away") {
    // sparse errors, no theta filter: error branches enter the DBG and must
    // be cleaned by merge-time tip drop + bubble filter + tip removal
    val res = Assembler.assemble(noisyReads(20, 0.0005, seed = 11), opts(theta = 0))
    val rep = Quast.evaluate(res.sequences, Some(genome), k, minLen = 100)
    assert(rep.genomeFraction.exists(_ > 60.0), s"gf=${rep.genomeFraction}")
    assert(rep.misassemblies.contains(0L))
    // residual mismatches only where an error path survived filtering
    assert(rep.mismatchesPer100kbp.exists(_ < 500.0), s"mm=${rep.mismatchesPer100kbp}")
  }

  test("the assembly does not depend on the reads' partitioning or order") {
    // A property over random genomes with long repeats and random read
    // seeds: the reads from 1 partition, from 5, and shuffled into 3 give
    // the same final contigs and the same LR and tip (supersteps, messages).
    import spark.implicits._
    def canon(s: String) = Seq(s, Dna.rc(s)).min
    def assembleFrom(rs: Seq[String], partitions: Int) = {
      val res = Assembler.assemble(spark.sparkContext.parallelize(rs, partitions).toDS(), opts())
      (res.sequences.map(canon).collect().sorted.toSeq,
       Seq(Some(res.labeling1), res.labeling2, res.tipStats).flatten
         .map(s => (s.supersteps, s.messages)))
    }
    val cases = for {
      length     <- Gen.choose(3000, 6000)
      repeats    <- Gen.choose(2, 6)
      repeatLen  <- Gen.choose(40, 200)
      genomeSeed <- Gen.choose(1L, 1000000L)
      readSeed   <- Gen.choose(1L, 1000000L)
    } yield (Dna.GenomeSpec(length, longRepeats = repeats, longRepeatLen = repeatLen), genomeSeed, readSeed)
    val prop = Prop.forAllNoShrink(cases) { case (spec, genomeSeed, readSeed) =>
      val g = Dna.genome(spec, genomeSeed)
      val readSpec = ReadSim.ReadSpec(readLen = 60, nReads = g.length * 15L / 60, errRate = 0.01, nRate = 0.0005)
      val reads = ReadSim.reads(spark, g, readSpec, readSeed).collect().toSeq
      val (contigs, counts) = assembleFrom(reads, 1)
      val others = Seq((reads, 5), (new scala.util.Random(readSeed).shuffle(reads), 3))
      ((contigs.nonEmpty && counts.size == 3) :| "round 1, round 2 and tips ran") && Prop.all(
        others.map { case (rs, parts) =>
          val (c, n) = assembleFrom(rs, parts)
          ((c == contigs) :| s"contigs differ from $parts partitions") &&
            ((n == counts) :| s"LR and tip (supersteps, messages) differ from $parts partitions: $n vs $counts")
        }: _*)
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(4).withInitialSeed(Seed(17))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)
  }

  test("property: the driver and Spark paths give the same labels, tips and counts") {
    // On random genomes with repeats and 1 % error reads, LR and S-V on both
    // labeling rounds' graphs, and tip removing on the round-1 output, give
    // the same labels or surviving nodes, supersteps and messages whichever
    // path the runtime is forced onto. A circular genome adds LR's S-V
    // fallback for <1-1> cycles.
    def onPath[T](serial: Boolean)(body: => (T, PregelStats)): (T, (Int, Long)) =
      PregelRuntime.forceSerial.withValue(Some(serial)) {
        val (out, stats) = body
        assert(stats.serial == serial)
        (out, (stats.supersteps, stats.messages))
      }
    /** The run on the driver path and on the Spark path. */
    def bothPaths[T](body: => (T, PregelStats)) = Seq(true, false).map(onPath(_)(body))
    def agree(what: String, runs: Seq[(Any, (Int, Long))]): Prop =
      (runs(0) == runs(1)) :| s"$what: the paths differ; (supersteps, messages) ${runs.map(_._2)}"
    def labels(what: String, r: => ContigLabeling.Result) = agree(what, bothPaths {
      val res = r
      (res.labels.collect().toMap, res.stats)
    })
    def survivors(t: => TipRemoving.Result) = agree("tip removing", bothPaths {
      val res = t
      (res.nodes.collect().map { case (id, n) => id -> (n.seq.toString, TestGraphs.sortedEdges(n)) }.toMap,
       res.stats)
    })
    val cases = for {
      length     <- Gen.choose(3000, 6000)
      repeats    <- Gen.choose(2, 6)
      repeatLen  <- Gen.choose(40, 200)
      genomeSeed <- Gen.choose(1L, 1000000L)
      readSeed   <- Gen.choose(1L, 1000000L)
    } yield (Dna.GenomeSpec(length, longRepeats = repeats, longRepeatLen = repeatLen), genomeSeed, readSeed)
    val prop = Prop.forAllNoShrink(cases) { case (spec, genomeSeed, readSeed) =>
      val g = Dna.genome(spec, genomeSeed)
      val readSpec = ReadSim.ReadSpec(readLen = 60, nReads = g.length * 15L / 60, errRate = 0.01, nRate = 0.0005)
      val res = Assembler.assemble(ReadSim.reads(spark, g, readSpec, readSeed), opts())
      val (g1, g2) = (res.round1.graph, res.round2.get.graph)
      val amb = g1.filter(_._2.typ == VType.MN).cache()
      val bubbled = BubbleFiltering.filter(res.round1Contigs, opts().bubbleEditThr).cache()
      Prop.all(
        labels("round 1 LR", ContigLabeling.labelLR(g1)),
        labels("round 1 S-V", ContigLabeling.labelSV(g1)),
        survivors(TipRemoving.run(amb, bubbled, k, opts().tipLen)),
        labels("round 2 LR", ContigLabeling.labelLR(g2)),
        labels("round 2 S-V", ContigLabeling.labelSV(g2)))
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(3).withInitialSeed(Seed(29))
    val result = Check.check(params, prop)
    assert(result.passed, result.status)

    val circle = Dna.genome(Dna.GenomeSpec(120, longRepeats = 0, shortRepeats = 0), 8)
    val cycle = TestGraphs.nodes(spark, TestGraphs.perfectReads(circle + circle.take(40), 40, k), k).cache()
    assert(cycle.collect().forall(_._2.typ == VType.OneOne), "expected a pure cycle")
    val fallback = bothPaths {
      val res = ContigLabeling.labelLR(cycle)
      (res.labels.collect().toMap, res.stats)
    }
    assert(fallback(0) == fallback(1), s"LR's S-V fallback: ${fallback.map(_._2)}")
  }

  test("final contigs carry sequences, not placeholders") {
    val res = Assembler.assemble(noisyReads(15, 0.01, seed = 13), opts())
    val seqs = res.sequences.collect()
    assert(seqs.nonEmpty)
    assert(seqs.forall(s => s.nonEmpty && s.forall(c => "ACGT".contains(c))))
  }
}
