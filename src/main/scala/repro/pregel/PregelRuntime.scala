package repro.pregel

import org.apache.spark.{HashPartitioner, Partition, Partitioner, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import scala.util.DynamicVariable

/** One superstep of a Pregel run: its index (from 0), the vertices that
  * stayed active, the messages sent, the aggregator's sum and wall time.
  */
final case class StepStat(superstep: Int, activeVertices: Long, messages: Long, agg: Long,
                          millis: Long)

/** Counters reported by a Pregel run: its per-superstep trace, wall time
  * and whether it stepped on the driver. The quantities in the paper's
  * Tables II/III, supersteps and total messages, are derived from the
  * trace, so they cannot disagree with it. `+` chains runs: the traces
  * follow one another (each keeping its own superstep indices), the times
  * add, and the sum is `serial` only if both runs were.
  */
final case class PregelStats(steps: Seq[StepStat], millis: Long, serial: Boolean) {
  def supersteps: Int = steps.size
  def messages: Long  = steps.map(_.messages).sum
  def +(o: PregelStats): PregelStats = PregelStats(steps ++ o.steps, millis + o.millis, serial && o.serial)
}

/** The one message shape of every program on the runtime. */
final case class Msg(kind: Int, a: Long, b: Long)

object Msg {
  implicit val ordering: Ordering[Msg] = (x, y) =>
    if (x.kind != y.kind) Integer.compare(x.kind, y.kind)
    else if (x.a != y.a) java.lang.Long.compare(x.a, y.a)
    else java.lang.Long.compare(x.b, y.b)
}

/** Per-vertex context handed to compute(.): superstep number, the
  * aggregated value from the previous superstep, a message emitter, a
  * vote-to-halt flag, and an aggregator contribution (summed as Long —
  * the only aggregator shape the paper's algorithms need).
  */
final class VertexContext(val superstep: Int, val agg: Long,
                          out: ArrayBuffer[(Long, Msg)]) {
  /** Pregel convention: a vertex halts unless it acts to stay active. */
  var halt: Boolean  = true
  var aggValue: Long = 0L
  def send(target: Long, kind: Int, a: Long, b: Long): Unit = out += ((target, Msg(kind, a, b)))
  def remainActive(): Unit = { halt = false }
}

/** A Pregel+-substitute vertex-centric BSP engine on Spark RDDs.
  *
  * Unlike edge-bound Pregel APIs (messages only along graph edges),
  * vertices can message **any vertex ID** — required by pointer-jumping
  * algorithms (list ranking, S-V) where message targets are pointers, not
  * edges. Semantics follow Pregel [11]: all vertices are active at
  * superstep 0; a vertex that votes to halt is reactivated by an incoming
  * message; the run terminates when every vertex has halted and no
  * messages are in flight. Messages to unknown vertex IDs are dropped (the
  * paper's algorithms never create vertices dynamically).
  *
  * Every message is a [[Msg]]. Pregel promises no message order; this
  * runtime sorts each inbox by (kind, a, b), signed, so a vertex sees the
  * same sequence whatever the partition count or the shuffle's fetch order.
  *
  * The run places the vertices once, on [[partitioner]] (one
  * `HashPartitioner(sc.defaultParallelism)`, whatever the input's
  * partition count; a no-op for an input already on it), and counts them
  * (n). Each superstep then runs one per-partition step, the same function
  * on both of the run's paths: build the partition's inbox, sort each
  * vertex's messages and compute.
  *
  *  - **Driver path** (n < `SerialBelow`, GPS's "finishing computations
  *    serially", Salihoglu & Widom, PVLDB 2014): the placed graph is
  *    fetched to the driver — all of it, since a message to any ID wakes a
  *    halted vertex — and every superstep steps it there as one partition,
  *    with no Spark job. The final states go back as an RDD on the run's
  *    partitioner (a broadcast, sliced per partition), with no shuffle and
  *    no checkpoint. A Spark superstep is a two-stage job, about 50 ms on
  *    4 vCPUs even when it moves almost nothing. Measured on list ranking
  *    over one path of n vertices (median ms per superstep, driver vs
  *    Spark, `local[4]`): n = 10³ 1 vs 51, 10⁴ 2 vs 48, 10⁵ 56 vs 132,
  *    3·10⁵ 283 vs 411, 10⁶ 1,155 vs 1,177; the crossover is near 10⁶.
  *  - **Spark path** (larger runs): as in Pregel+ and GraphX, vertex state
  *    stays on its partition and only messages travel. Each superstep zips
  *    every state partition with its partition of the messages
  *    (`zipPartitions`, the messages `partitionBy` the same partitioner). A
  *    stepped partition is cached as one [[Part]] holding its vertices'
  *    states, halt votes and outbox; the previous superstep's is
  *    unpersisted. Lineage is cut with localCheckpoint every
  *    `CheckpointEvery` supersteps (pointer jumping otherwise builds
  *    O(supersteps)-deep lineage), and the newest checkpoint stays cached
  *    until a newer one is materialized: an evicted partition above it can
  *    only be recomputed from it. `SerialBelow` is capped below the Table
  *    II round-1 graphs (224k–671k unambiguous vertices), so Table II
  *    measures this path.
  *
  * Both paths give the same states, supersteps, messages and aggregator
  * values, and `stopWhen` sees the same trace: after each superstep, the
  * [[StepStat]]s recorded so far, the newest last. [[PregelStats]] records
  * which path ran and that trace.
  *
  * Spark logs "RDD … was locally checkpointed … cannot be recomputed after
  * unpersisting" whenever a checkpointed RDD is unpersisted: by the
  * runtime, when a Spark-path run of 25 or more supersteps drops its older
  * checkpoint for a newer one, and by a caller that frees every cached
  * block after an assembly (`Tables`), once for each Spark-path run that
  * kept a checkpoint. Driver-path runs make none, so a unit-test run now
  * logs 10 such lines, against 27 before. They are noise: the live state
  * descends from the newest checkpoint, and a freed run is no longer read.
  * They are left unfiltered all the same, because the same line from a
  * caller that unpersisted a run's newest checkpoint while still reading
  * its output would be signal (that output could no longer be rebuilt
  * after an eviction), and a logger filter cannot tell the two apart.
  *
  * Every run names its program and bounds its supersteps as a function of
  * n; a run that reaches its bound fails with the program's name, n and
  * the bound.
  */
object PregelRuntime {

  private val CheckpointEvery = 12

  /** Runs on fewer vertices step on the driver. The measured crossover
    * (near 10⁶ vertices, see above) lies above the cap, so this is the
    * cap: below HC14's 223,061 unambiguous vertices, the smallest Table II
    * round-1 run, so that Table II measures the Spark path. Table III's
    * round-2 runs (1.5k–12k vertices) and the benchmark's runs step here.
    */
  private val SerialBelow = 200000L

  /** Test hook: `Some(true)` forces the driver path, `Some(false)` the
    * Spark path; `None` (the default) lets n choose.
    */
  private[repro] val forceSerial = new DynamicVariable[Option[Boolean]](None)

  /** ⌈log₂ n⌉, 0 for n ≤ 1: the unit of the PPA superstep bounds. */
  def ceilLog2(n: Long): Int = if (n <= 1) 0 else 64 - java.lang.Long.numberOfLeadingZeros(n - 1)

  /** One partition's vertices after a superstep: IDs, states and halt
    * votes side by side, the messages they sent, and the partition's share
    * of the superstep's aggregator and active-vertex count.
    */
  private final class Part[V](
      val ids: Array[Long], val states: Array[V], val halted: Array[Boolean],
      val out: ArrayBuffer[(Long, Msg)], val agg: Long, val active: Long)
      extends Serializable

  /** One superstep of one partition: group the inbound messages by target,
    * sort each inbox, and compute every vertex that is active or has mail.
    */
  private def step[V: ClassTag](
      prev: Part[V], inbound: Iterator[(Long, Msg)], superstep: Int, agg: Long,
      compute: (VertexContext, Long, V, Seq[Msg]) => V): Part[V] = {
    val inbox = new mutable.LongMap[List[Msg]]()
    inbound.foreach { case (id, m) =>
      val ms = inbox.getOrNull(id)
      inbox.update(id, if (ms == null) m :: Nil else m :: ms)
    }
    val n       = prev.ids.length
    val states  = new Array[V](n)
    val halted  = new Array[Boolean](n)
    val out     = new ArrayBuffer[(Long, Msg)]()
    var partAgg = 0L
    var active  = 0L
    var i = 0
    while (i < n) {
      val ms = inbox.getOrNull(prev.ids(i))
      if (prev.halted(i) && ms == null) {
        states(i) = prev.states(i)
        halted(i) = true
      } else {
        val ctx = new VertexContext(superstep, agg, out)
        val sorted = if (ms == null) Nil else if (ms.tail.isEmpty) ms else ms.sorted
        states(i) = compute(ctx, prev.ids(i), prev.states(i), sorted)
        halted(i) = ctx.halt
        partAgg += ctx.aggValue
        if (!ctx.halt) active += 1
      }
      i += 1
    }
    new Part[V](prev.ids, states, halted, out, partAgg, active)
  }

  /** The one partitioner of every run's vertices. An input already on it
    * (the round-1 graph, which DBG construction builds on it, and each run's
    * output) is placed without a shuffle.
    */
  def partitioner(sc: SparkContext): Partitioner = new HashPartitioner(sc.defaultParallelism)

  /** Run a Pregel program.
    *
    * @param vertices      initial vertex states
    * @param compute       (ctx, id, state, sorted inbox) => new state; send/halt via ctx
    * @param program       the program's name, for the bound's error message
    * @param maxSupersteps the superstep bound as a function of the vertex
    *                      count n; reaching it fails the run
    * @param stopWhen      early-stop predicate on the trace so far, evaluated
    *                      after each superstep (e.g. list ranking's cycle
    *                      detection)
    * @return final states (partitioned by the run's partitioner) and run
    *         statistics
    */
  def run[V: ClassTag](
      vertices: RDD[(Long, V)],
      compute: (VertexContext, Long, V, Seq[Msg]) => V,
      program: String,
      maxSupersteps: Long => Int,
      stopWhen: Seq[StepStat] => Boolean = _ => false,
  ): (RDD[(Long, V)], PregelStats) = {
    val t0 = System.currentTimeMillis()
    val partitioner = PregelRuntime.partitioner(vertices.sparkContext)
    val placed = vertices.partitionBy(partitioner).mapPartitions({ it =>
      val (ids, states) = it.toArray.unzip
      Iterator(new Part[V](ids, states, new Array[Boolean](ids.length),
                           ArrayBuffer.empty, 0L, ids.length.toLong))
    }, preservesPartitioning = true).cache()
    val n = placed.map(_.ids.length.toLong).fold(0L)(_ + _)
    val bound = maxSupersteps(n)
    val serial = forceSerial.value.getOrElse(n < SerialBelow)

    // Runs supersteps until every vertex has halted with no message in
    // flight, or stopWhen holds; advance(superstep, agg) steps every vertex
    // once and returns (messages, aggregator, active vertices).
    var steps = Vector.empty[StepStat]
    def superstepLoop(advance: (Int, Long) => (Long, Long, Long)): Unit = {
      var done = false
      while (!done) {
        val superstep = steps.size
        require(superstep < bound,
          s"$program did not halt within its bound of $bound supersteps on n = $n vertices")
        val s0 = System.nanoTime()
        val (msgCount, aggSum, activeCount) = advance(superstep, steps.lastOption.fold(0L)(_.agg))
        steps :+= StepStat(superstep, activeCount, msgCount, aggSum, (System.nanoTime() - s0) / 1000000L)
        done = (msgCount == 0L && activeCount == 0L) || stopWhen(steps)
      }
    }
    val out =
      if (serial) onDriver(placed, n, partitioner, compute, superstepLoop)
      else onSpark(placed, partitioner, compute, superstepLoop)
    (out, PregelStats(steps, System.currentTimeMillis() - t0, serial))
  }

  /** The driver path: fetch the placed partitions, step them as one, and
    * hand each partition's final states back where the partitioner put it.
    */
  private def onDriver[V: ClassTag](
      placed: RDD[Part[V]], n: Long, partitioner: Partitioner,
      compute: (VertexContext, Long, V, Seq[Msg]) => V,
      superstepLoop: ((Int, Long) => (Long, Long, Long)) => Unit): RDD[(Long, V)] = {
    val fetched = placed.collect()
    placed.unpersist(blocking = false)
    var part = new Part[V](fetched.flatMap(_.ids), fetched.flatMap(_.states),
                           new Array[Boolean](n.toInt), ArrayBuffer.empty, 0L, n)
    superstepLoop { (superstep, agg) =>
      part = step(part, part.out.iterator, superstep, agg, compute)
      (part.out.size.toLong, part.agg, part.active)
    }
    // Partition i's vertices keep their offsets in the concatenation.
    val from = fetched.scanLeft(0)(_ + _.ids.length)
    val sc = placed.sparkContext
    new DriverStates(sc, sc.broadcast((part.ids, part.states, from)), partitioner)
  }

  /** The Spark path: one `zipPartitions` job per superstep, shuffling only
    * the messages.
    */
  private def onSpark[V: ClassTag](
      placed: RDD[Part[V]], partitioner: Partitioner,
      compute: (VertexContext, Long, V, Seq[Msg]) => V,
      superstepLoop: ((Int, Long) => (Long, Long, Long)) => Unit): RDD[(Long, V)] = {
    var state = placed
    var msgs: RDD[(Long, Msg)] = placed.sparkContext.emptyRDD[(Long, Msg)].partitionBy(partitioner)
    // The live state descends from the newest materialized checkpoint, and
    // a locally checkpointed RDD cannot be recomputed once unpersisted.
    var checkpointed: RDD[Part[V]] = null
    superstepLoop { (superstep, agg) =>
      val stepped = state.zipPartitions(msgs, preservesPartitioning = true) { (parts, inbound) =>
        Iterator(step(parts.next(), inbound, superstep, agg, compute))
      }.cache()
      val checkpoint = superstep > 0 && superstep % CheckpointEvery == 0
      if (checkpoint) stepped.localCheckpoint()

      val totals = stepped
        .map(p => (p.out.size.toLong, p.agg, p.active))
        .fold((0L, 0L, 0L)) { case ((a1, b1, c1), (a2, b2, c2)) => (a1 + a2, b1 + b2, c1 + c2) }
      msgs = stepped.flatMap(_.out).partitionBy(partitioner)

      if (state ne checkpointed) state.unpersist(blocking = false)
      if (checkpoint) {
        if (checkpointed != null) checkpointed.unpersist(blocking = false)
        checkpointed = stepped
      }
      state = stepped
      totals
    }
    state.mapPartitions(_.flatMap(p => p.ids.iterator.zip(p.states.iterator)),
                        preservesPartitioning = true)
  }

  /** A driver-path run's final states on `part`: partition i is the slice
    * `from(i) until from(i + 1)` of the broadcast IDs and states.
    */
  private final class DriverStates[V: ClassTag](
      sc: SparkContext, states: Broadcast[(Array[Long], Array[V], Array[Int])], part: Partitioner)
      extends RDD[(Long, V)](sc, Nil) {
    // Spark's log lines about this RDD go where those about its own RDDs go.
    override protected def logName: String = classOf[RDD[_]].getName
    override val partitioner: Option[Partitioner] = Some(part)
    override protected def getPartitions: Array[Partition] =
      Array.tabulate[Partition](part.numPartitions)(Slot(_))
    override def compute(split: Partition, context: TaskContext): Iterator[(Long, V)] = {
      val (ids, vs, from) = states.value
      Iterator.range(from(split.index), from(split.index + 1)).map(j => (ids(j), vs(j)))
    }
  }

  private final case class Slot(index: Int) extends Partition
}
