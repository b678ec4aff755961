package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.Assembler
import repro.dna.{Dna, ReadSim}

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Both modes set up Spark and the reads. Untraced (`--trace 0`):
  * assemble each of the workload's read samples with `Assembler.assemble`
  * in whole rounds until `--seconds` have passed (at least one round), and
  * report the end-to-end metrics as medians over the assemblies.
  * Traced (`--trace 1`): per round one stage-by-stage run under the Spark
  * listener and one `Assembler.assemble` to check it against, then the
  * kernel timings; report the per-layer metrics. The first assembly of
  * either mode is the first in its JVM, as for a job submitted to Spark,
  * so the JIT's warm-up is part of what it measures. Either way the outputs
  * are checked on the driver and the last line of stdout is one JSON
  * object.
  */
object Main {

  private final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  private def parseArgs(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name = need("workload")
    Args(
      Workloads.byName(name).getOrElse(throw new IllegalArgumentException(
        s"unknown workload $name; one of ${Workloads.all.map(_.name).mkString(", ")}")),
      need("seed").toLong,
      need("seconds").toInt,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      })
  }

  private val SetUps = 3

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val start = System.nanoTime()

  /** Progress on stderr, so that stdout keeps only the result. */
  private def log(msg: String): Unit = Console.err.println(f"perfbench ${seconds(start)}%7.2f s: $msg")

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Final contigs as a multiset of canonical strings. */
  private def canonicalMultiset(contigs: Seq[String]): Map[String, Int] =
    contigs.groupBy(Checks.canon).map { case (c, cs) => (c, cs.size) }

  /** Drop everything an assembly cached, keeping the reads. */
  private def unpersistAllBut(spark: SparkSession, keep: Set[Int]): Unit =
    spark.sparkContext.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!keep(id)) rdd.unpersist(blocking = true)
    }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val w = args.workload
    val cores = math.min(Runtime.getRuntime.availableProcessors, 4)
    val partitions = 2 * cores

    // Set-up, three times over: a Spark session (the first one in the JVM
    // cold, the others after stopping the previous one), then the reads
    // generated and cached. The median is reported, so that the cold first
    // set-up does not set it; the last set is kept.
    // A traced run uses sample 0 only.
    val genome = Dna.genome(w.genomeSpec, w.genomeSeed)
    val samples = if (args.trace) 1 else w.samples
    var spark: SparkSession = null
    var reads: Seq[Dataset[String]] = Nil
    val setupS = (1 to SetUps).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = SparkSession.builder
        .master(s"local[$cores]")
        .appName(s"perfbench-${w.name}")
        .config("spark.sql.shuffle.partitions", partitions.toString)
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
      spark.sparkContext.setLogLevel("WARN")
      reads = (0 until samples).map { i =>
        val r = ReadSim.reads(spark, genome, w.readSpec, w.sampleSeed(args.seed, i), partitions)
          .persist(StorageLevel.MEMORY_AND_DISK)
        r.count()
        r
      }
      seconds(t0)
    }
    log(s"set-up ${setupS.map(x => f"$x%.2f").mkString(" ")} s")
    val sc = spark.sparkContext
    val counters = new SparkCounters(sc)
    val keep = sc.getPersistentRDDs.keySet.toSet

    val result =
      if (!args.trace) untraced(spark, reads, w, genome, args.seconds, keep, counters, median(setupS), cores)
      else {
        val readArr = reads.head.collect()
        traced(spark, reads.head, w, args.seconds, keep, counters, new Outputs(w, genome, readArr, cores), readArr, cores)
      }

    counters.close()
    spark.stop()
    log("done")
    println(result)
  }

  /** Checks on final contigs, shared by both modes. */
  final class Outputs(w: Workload, genome: String, reads: Array[String], threads: Int) {
    private val k = w.opts.k
    val recount = Checks.recount(reads, k, threads)
    val kept: String => Boolean = e => recount.getOrElse(e, 0) > w.opts.theta
    val index = new Checks.GenomeIndex(genome, k)
    private val wrongBound = Checks.wrongKmerBound(genome.length, w.readSpec.readLen,
      w.readSpec.nReads, w.readSpec.errRate, w.readSpec.nRate, k, w.opts.theta)

    /** (c) walks in the recounted DBG; (d) exact substrings on error-free
      * reads; (e) few k-mers outside the genome on reads with errors.
      */
    def contigsOk(contigs: Seq[String]): Boolean = {
      val walks = contigs.forall(c => Checks.isDbgWalk(c, kept, k))
      val truth =
        if (w.errorFree) contigs.forall(index.isSubstring)
        else {
          val mers = contigs.iterator.flatMap(c => (0 to c.length - k).iterator.map(i => Checks.canon(c.substring(i, i + k)))).toSet
          mers.count(m => !index.contains(m)) <= wrongBound
        }
      walks && truth
    }

    def long(contigs: Seq[String]): Seq[String] = contigs.filter(_.length >= 500)
  }

  private def untraced(spark: SparkSession, reads: Seq[Dataset[String]], w: Workload, genome: String,
                       runSeconds: Int, keep: Set[Int], counters: SparkCounters,
                       setupS: Double, cores: Int): String = {
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    val shuffle = scala.collection.mutable.ArrayBuffer.empty[Double]
    val heap = scala.collection.mutable.ArrayBuffer.empty[Double]
    // The final contigs of every assembly, by sample.
    val outputs = reads.map(_ => scala.collection.mutable.ArrayBuffer.empty[Seq[String]])
    val tRun = System.nanoTime()
    while (times.isEmpty || seconds(tRun) < runSeconds) {
      for ((r, i) <- reads.zipWithIndex) {
        counters.reset()
        System.gc()
        HeapPeak.reset()
        val t0 = System.nanoTime()
        val res = Assembler.assemble(r, w.opts)
        res.finalContigs.count()
        times += seconds(t0)
        val steps = Seq(Some(res.labeling1), res.tipStats, res.labeling2).flatten.map(_.supersteps)
        log(f"assembly ${times.size} (sample $i): ${times.last}%.2f s, supersteps ${steps.mkString(" ")}")
        heap += HeapPeak.peakBytes / 1e6
        shuffle += counters.snapshot().values.map(_.shuffleWriteBytes).sum / 1e6
        outputs(i) += res.sequences.collect().toSeq
        unpersistAllBut(spark, keep)
      }
    }
    // The recount and the genome index are built only now, so that they
    // are not live on the heap that heap_peak_mb measures. Every assembly
    // of a sample must give the same contigs, and those must pass the checks.
    log("checks")
    val perSample = reads.zip(outputs).map { case (r, os) =>
      val out = new Outputs(w, genome, r.collect(), cores)
      val first = os.head
      val failed = os.count(o => canonicalMultiset(o) != canonicalMultiset(first) || !out.contigsOk(o))
      val long = out.long(first)
      (failed, Checks.n50(long.map(_.length)).toDouble, out.index.coveredBases(long).toDouble)
    }
    val failed = perSample.map(_._1).sum
    Json.result(failed == 0, times.size, failed, Seq(
      ("assemble_s", median(times.toSeq), "s"),
      ("setup_s", setupS, "s"),
      ("shuffle_mb", median(shuffle.toSeq), "MB"),
      ("heap_peak_mb", median(heap.toSeq), "MB"),
      ("n50_bp", median(perSample.map(_._2)), "bp"),
      ("genome_covered_bp", median(perSample.map(_._3)), "bp"),
    ))
  }

  private def traced(spark: SparkSession, reads: Dataset[String], w: Workload, runSeconds: Int,
                     keep: Set[Int], counters: SparkCounters, out: Outputs,
                     readArr: Array[String], cores: Int): String = {
    val runs = scala.collection.mutable.ArrayBuffer.empty[(Staged.Run, Map[String, SpanCounters])]
    var failed = 0
    val tRun = System.nanoTime()
    while (runs.isEmpty || seconds(tRun) < runSeconds) {
      counters.reset()
      val run = Staged.run(reads, w.opts)
      runs += ((run, counters.snapshot()))
      unpersistAllBut(spark, keep)
      val reference = Assembler.assemble(reads, w.opts).sequences.collect().toSeq
      unpersistAllBut(spark, keep)
      log(f"traced ${run.totalSeconds}%.2f s")

      // Drift guard, then (a)-(e) on this run's graph, labels and contigs.
      val dbg = new Checks.Dbg(out.recount.iterator.collect { case (e, c) if c > w.opts.theta => e }.toSeq, w.opts.k)
      val seqOf = run.graph1.iterator.map { case (id, n) => (id, n.seq.toString) }.toMap
      val adj = run.graph1.iterator.map { case (_, n) => (seqOf(n.id), n.edges.map(e => seqOf.getOrElse(e.nbr, "?")).toSet) }.toMap
      def bySeq(labels: Array[(Long, Long)]) = labels.iterator.map { case (id, l) => (seqOf(id), l) }.toMap
      val ok = canonicalMultiset(run.finalContigs.toSeq) == canonicalMultiset(reference) &&
        Checks.dbgMatches(adj, dbg) && Checks.samePartition(bySeq(run.labels1), dbg) &&
        Checks.samePartition(bySeq(run.labels1Sv), dbg) && out.contigsOk(run.finalContigs.toSeq)
      if (!ok) failed += 1
    }

    log("checks done")
    val (run, spans) = runs.head
    val sample = readArr.take(2000)
    val kernels = Kernels.measure(sample, run.graph1.map(_._2), run.round1Contigs, w.opts.k, w.opts.bubbleEditThr)

    val metrics = Seq.newBuilder[(String, Double, String)]
    for (s <- Staged.Stages :+ Staged.SvStage) {
      val c = spans.getOrElse(s, SpanCounters())
      val wall = median(runs.map(_._1.stageSeconds(s)).toSeq)
      metrics ++= Seq(
        (s"core.$s.s", wall, "s"),
        (s"core.$s.shuffle_mb", c.shuffleWriteBytes / 1e6, "MB"),
        (s"core.$s.jobs", c.jobs.toDouble, "count"),
        (s"core.$s.tasks", c.tasks.toDouble, "count"),
        (s"core.$s.cpu_util", c.cpuNs / 1e9 / (run.stageSeconds(s) * cores), "ratio"),
      )
    }
    metrics ++= Seq(
      ("core.graph1.vertices", run.graph1Vertices.toDouble, "count"),
      ("core.graph1.cached_mb", run.graph1CachedBytes / 1e6, "MB"),
      ("core.graph2.vertices", run.graph2Vertices.toDouble, "count"),
      ("core.contigs1", run.contigs1.toDouble, "count"),
      ("core.contigs_final", run.finalContigs.length.toDouble, "count"),
    )
    for ((p, st) <- Seq("label1", "tip", "label2", Staged.SvStage).map(p => (p, run.pregel(p)))) metrics ++= Seq(
      (s"pregel.$p.supersteps", st.supersteps.toDouble, "count"),
      (s"pregel.$p.messages", st.messages.toDouble, "count"),
      (s"pregel.$p.ms_per_superstep", run.stageSeconds(p) * 1000 / st.supersteps, "ms"),
    )
    val total = Staged.Stages.map(s => spans.getOrElse(s, SpanCounters())).reduce(_ + _)
    metrics ++= Seq(
      ("spark.jobs", total.jobs.toDouble, "count"),
      ("spark.stages", total.stages.toDouble, "count"),
      ("spark.tasks", total.tasks.toDouble, "count"),
      ("spark.task_cpu_s", total.cpuNs / 1e9, "s"),
      ("spark.gc_s", total.gcMs / 1e3, "s"),
      ("spark.cpu_util", total.cpuNs / 1e9 / (run.totalSeconds * cores), "ratio"),
    )
    for ((name, unit) <- Seq(
        "core.DbgConstruction.edgeMers" -> "ns", "dna.Kmer.canonical" -> "ns", "core.Node.typ" -> "ns",
        "dna.PackedSeqBuilder.appendSeq" -> "ns/base", "dna.EditDistance.capped" -> "ns")) {
      val t = kernels(name)
      metrics += ((if (unit == "ns/base") s"${name}_ns_per_base" else s"${name}_ns", t.nsPerOp, unit))
      metrics += ((s"$name.ops", t.ops.toDouble, "count"))
    }
    metrics += (("trace.traced_s", median(runs.map(_._1.totalSeconds).toSeq), "s"))
    Json.result(failed == 0, runs.size, failed, metrics.result())
  }
}
