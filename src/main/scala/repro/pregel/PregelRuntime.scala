package repro.pregel

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
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

/** Per-vertex context handed to compute(.): superstep number, the
  * aggregated value from the previous superstep, a message emitter, a
  * vote-to-halt flag, and an aggregator contribution (summed as Long —
  * the only aggregator shape the paper's algorithms need).
  */
final class VertexContext[M](val superstep: Int, val agg: Long,
                             out: ArrayBuffer[(Long, M)]) {
  /** Pregel convention: a vertex halts unless it acts to stay active. */
  var halt: Boolean  = true
  var aggValue: Long = 0L
  def send(target: Long, msg: M): Unit = out += ((target, msg))
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
  * Each superstep is one cogroup of (state, messages) on a fixed
  * HashPartitioner; the stepped RDD is cached and the previous one
  * unpersisted; lineage is cut with localCheckpoint every
  * `CheckpointEvery` supersteps (pointer jumping otherwise builds
  * O(supersteps)-deep lineage), and the newest checkpoint stays cached
  * until a newer one is materialized. Messages to unknown vertex IDs are dropped
  * (the paper's algorithms never create vertices dynamically).
  */
object PregelRuntime {

  private val CheckpointEvery = 12

  /** Per-superstep observation for early-stop hooks. */
  final case class StepInfo(superstep: Int, activeVertices: Long, messages: Long, agg: Long)

  private final case class Step[V, M](state: V, halted: Boolean,
                                      out: Seq[(Long, M)], agg: Long)

  /** Run a Pregel program.
    *
    * @param vertices initial vertex states
    * @param compute  (ctx, id, state, messages) => new state; send/halt via ctx
    * @param stopWhen early-stop predicate evaluated after each superstep
    *                 (e.g. list ranking's cycle detection)
    * @return final states and run statistics
    */
  def run[V: ClassTag, M: ClassTag](
      vertices: RDD[(Long, V)],
      compute: (VertexContext[M], Long, V, Seq[M]) => V,
      stopWhen: StepInfo => Boolean = _ => false,
      maxSupersteps: Int = 100000,
  ): (RDD[(Long, V)], PregelStats) = {
    val t0 = System.currentTimeMillis()
    val sc = vertices.sparkContext
    val partitioner = new HashPartitioner(math.max(1, vertices.getNumPartitions))

    val initial: RDD[(Long, (V, Boolean))] =
      vertices.mapValues(v => (v, false)).partitionBy(partitioner).cache()
    var state     = initial
    var msgs: RDD[(Long, M)] = sc.emptyRDD[(Long, M)].partitionBy(partitioner)
    var prevStepped: RDD[(Long, Step[V, M])] = null
    // The live state descends from the newest materialized checkpoint, and
    // a locally checkpointed RDD cannot be recomputed once unpersisted.
    var checkpointed: RDD[(Long, Step[V, M])] = null
    var superstep = 0
    var totalMsgs = 0L
    var agg       = 0L
    var done      = false

    while (!done) {
      require(superstep < maxSupersteps, s"Pregel did not terminate in $maxSupersteps supersteps")
      val step  = superstep
      val aggIn = agg
      val fn    = compute
      val stepped: RDD[(Long, Step[V, M])] =
        state.cogroup(msgs, partitioner).flatMap { case (id, (vs, ms)) =>
          vs.headOption.map { case (v, halted) =>
            val inbox = ms.toSeq
            if (halted && inbox.isEmpty && step > 0) (id, Step[V, M](v, true, Nil, 0L))
            else {
              val out = new ArrayBuffer[(Long, M)]()
              val ctx = new VertexContext[M](step, aggIn, out)
              val nv  = fn(ctx, id, v, inbox)
              (id, Step(nv, ctx.halt, out.toSeq, ctx.aggValue))
            }
          }
        }
      val persisted = stepped.cache()
      val checkpoint = superstep > 0 && superstep % CheckpointEvery == 0
      if (checkpoint) persisted.localCheckpoint()

      val (msgCount, aggSum, activeCount) = persisted
        .map { case (_, s) => (s.out.size.toLong, s.agg, if (s.halted) 0L else 1L) }
        .fold((0L, 0L, 0L)) { case ((a1, b1, c1), (a2, b2, c2)) => (a1 + a2, b1 + b2, c1 + c2) }

      totalMsgs += msgCount
      agg = aggSum
      val nextState = persisted.mapValues(s => (s.state, s.halted))
      val nextMsgs  = persisted
        .flatMap { case (_, s) => s.out }
        .partitionBy(partitioner)

      if (superstep == 0) initial.unpersist(blocking = false)
      if (prevStepped != null && (prevStepped ne checkpointed)) prevStepped.unpersist(blocking = false)
      if (checkpoint) {
        if (checkpointed != null) checkpointed.unpersist(blocking = false)
        checkpointed = persisted
      }
      prevStepped = persisted
      state       = nextState
      msgs        = nextMsgs
      superstep += 1

      if (msgCount == 0L && activeCount == 0L) done = true
      else if (stopWhen(StepInfo(superstep, activeCount, msgCount, aggSum))) done = true
    }
    (state.mapValues(_._1), PregelStats(superstep, totalMsgs, System.currentTimeMillis() - t0))
  }
}
