package repro.pregel

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Counters reported by a Pregel run — the quantities in the paper's
  * Tables II/III: number of supersteps, total messages sent, wall time.
  */
final case class PregelStats(supersteps: Int, messages: Long, millis: Long) {
  def +(o: PregelStats): PregelStats =
    PregelStats(supersteps + o.supersteps, messages + o.messages, millis + o.millis)
}

object PregelStats { val zero: PregelStats = PregelStats(0, 0L, 0L) }

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
  * messages are in flight.
  *
  * Every message is a [[Msg]]. Pregel promises no message order; this
  * runtime sorts each inbox by (kind, a, b), signed, so a vertex sees the
  * same sequence whatever the partition count or the shuffle's fetch order.
  *
  * As in Pregel+ and GraphX, vertex state stays on its partition and only
  * messages travel. The run places the vertices once, at superstep 0, with
  * one `HashPartitioner(sc.defaultParallelism)` (whatever the input's
  * partition count); each superstep then zips every state partition with
  * its partition of the messages (`zipPartitions`, the messages
  * `partitionBy` the same partitioner) and computes from a per-partition
  * inbox map. A stepped partition is cached as one [[Part]] holding its
  * vertices' states, halt votes and outbox; the previous superstep's is
  * unpersisted. Lineage is cut with localCheckpoint every `CheckpointEvery`
  * supersteps (pointer jumping otherwise builds O(supersteps)-deep
  * lineage), and the newest checkpoint stays cached until a newer one is
  * materialized: an evicted partition above it can only be recomputed from
  * it. Messages to unknown vertex IDs are dropped (the paper's algorithms
  * never create vertices dynamically).
  */
object PregelRuntime {

  private val CheckpointEvery = 12

  /** Per-superstep observation for early-stop hooks. */
  final case class StepInfo(superstep: Int, activeVertices: Long, messages: Long, agg: Long)

  /** One partition's vertices after a superstep: IDs, states and halt
    * votes side by side, the messages they sent, and the partition's share
    * of the superstep's aggregator and active-vertex count.
    */
  private final class Part[V](
      val ids: Array[Long], val states: Array[V], val halted: Array[Boolean],
      val out: ArrayBuffer[(Long, Msg)], val agg: Long, val active: Long)
      extends Serializable

  /** Run a Pregel program.
    *
    * @param vertices initial vertex states
    * @param compute  (ctx, id, state, sorted inbox) => new state; send/halt via ctx
    * @param stopWhen early-stop predicate evaluated after each superstep
    *                 (e.g. list ranking's cycle detection)
    * @return final states (partitioned by the run's partitioner) and run
    *         statistics
    */
  def run[V: ClassTag](
      vertices: RDD[(Long, V)],
      compute: (VertexContext, Long, V, Seq[Msg]) => V,
      stopWhen: StepInfo => Boolean = _ => false,
      maxSupersteps: Int = 100000,
  ): (RDD[(Long, V)], PregelStats) = {
    val t0 = System.currentTimeMillis()
    val sc = vertices.sparkContext
    val partitioner = new HashPartitioner(sc.defaultParallelism)

    var state: RDD[Part[V]] =
      vertices.partitionBy(partitioner).mapPartitions({ it =>
        val (ids, states) = it.toArray.unzip
        Iterator(new Part[V](ids, states, new Array[Boolean](ids.length),
                             ArrayBuffer.empty, 0L, ids.length.toLong))
      }, preservesPartitioning = true)
    var msgs: RDD[(Long, Msg)] = sc.emptyRDD[(Long, Msg)].partitionBy(partitioner)
    // The live state descends from the newest materialized checkpoint, and
    // a locally checkpointed RDD cannot be recomputed once unpersisted.
    var checkpointed: RDD[Part[V]] = null
    var superstep = 0
    var totalMsgs = 0L
    var agg       = 0L
    var done      = false

    while (!done) {
      require(superstep < maxSupersteps, s"Pregel did not terminate in $maxSupersteps supersteps")
      val step  = superstep
      val aggIn = agg
      val fn    = compute
      val stepped = state.zipPartitions(msgs, preservesPartitioning = true) { (parts, inbound) =>
        val prev  = parts.next()
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
            val ctx = new VertexContext(step, aggIn, out)
            val sorted = if (ms == null) Nil else if (ms.tail.isEmpty) ms else ms.sorted
            states(i) = fn(ctx, prev.ids(i), prev.states(i), sorted)
            halted(i) = ctx.halt
            partAgg += ctx.aggValue
            if (!ctx.halt) active += 1
          }
          i += 1
        }
        Iterator(new Part[V](prev.ids, states, halted, out, partAgg, active))
      }
      val persisted = stepped.cache()
      val checkpoint = superstep > 0 && superstep % CheckpointEvery == 0
      if (checkpoint) persisted.localCheckpoint()

      val (msgCount, aggSum, activeCount) = persisted
        .map(p => (p.out.size.toLong, p.agg, p.active))
        .fold((0L, 0L, 0L)) { case ((a1, b1, c1), (a2, b2, c2)) => (a1 + a2, b1 + b2, c1 + c2) }

      totalMsgs += msgCount
      agg = aggSum
      msgs = persisted.flatMap(_.out).partitionBy(partitioner)

      if (state ne checkpointed) state.unpersist(blocking = false)
      if (checkpoint) {
        if (checkpointed != null) checkpointed.unpersist(blocking = false)
        checkpointed = persisted
      }
      state = persisted
      superstep += 1

      if (msgCount == 0L && activeCount == 0L) done = true
      else if (stopWhen(StepInfo(superstep, activeCount, msgCount, aggSum))) done = true
    }
    val out = state.mapPartitions(_.flatMap(p => p.ids.iterator.zip(p.states.iterator)),
                                  preservesPartitioning = true)
    (out, PregelStats(superstep, totalMsgs, System.currentTimeMillis() - t0))
  }
}
