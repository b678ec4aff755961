package repro.core

import org.apache.spark.rdd.RDD
import repro.pregel.{Msg, PregelRuntime, PregelStats, VertexContext}

/** Operation ⑤ — tip removing (paper §IV-B), one run on the Pregel runtime.
  *
  * Input: the ambiguous k-mers plus the merged (and bubble-filtered)
  * contigs. Supersteps 0 and 1 relink the ambiguous k-mers, the paper's
  * contig-info push: in superstep 0 every vertex sends a message along each
  * of its edges — a contig its ID and the end edge as its neighbour will see
  * it (sides swapped, coverage), an ambiguous k-mer its ID — and stays
  * active. Messages to merged-away k-mers are dropped by the runtime. In
  * superstep 1 each ambiguous k-mer keeps the edges whose neighbour sent a
  * k-mer message and adds one edge per contig message; edges to merged-away
  * k-mers and to pruned contigs disappear, which may already change a
  * vertex's type.
  *
  * Then, from superstep 1, the REQUEST/DELETE protocol: each ⟨1⟩-typed node
  * no longer than the tip-length threshold starts a REQUEST carrying its own
  * sequence length; ⟨1-1⟩ nodes relay it adding their length minus the
  * (k-1) overlap while the sum stays within the threshold; the message
  * terminates at an ⟨m-n⟩ or ⟨1⟩ node, which sends a DELETE back along the
  * dangling path if the cumulative length is within the threshold. The sum
  * only grows and both terminators test it against the threshold, so a
  * REQUEST that is not started or relayed could never have ended in a
  * DELETE. Deletions are relayed hop-by-hop (meeting DELETEs are
  * idempotent); an ⟨m-n⟩ terminator drops its edge to the tip and, if it
  * thereby becomes ⟨1⟩-typed, immediately initiates a REQUEST of its own —
  * the paper's multi-phase behaviour, message-driven. Edges are removed only
  * at ⟨m-n⟩ nodes, and ⟨1⟩ and ⟨1-1⟩ nodes only die, so a node initiates at
  * most once.
  */
object TipRemoving {

  final case class TipState(node: Node, dead: Boolean) extends Serializable

  /** DELETE (a = sender) sorts before REQUEST (a = cumulative length,
    * b = sender): a node killed this superstep ignores concurrent REQUESTs,
    * and an ⟨m-n⟩ node takes its shortest pending tip first. The push
    * superstep sends KMER (a = sender) and CONTIG (a = contig ID), each with
    * b = the receiver's edge to the sender, [[packEdge]]; only a CONTIG's b is
    * read.
    */
  private val Delete  = 0
  private val Request = 1
  private val Kmer    = 2
  private val Contig  = 3

  private def packEdge(mySide: Int, nbrSide: Int, cov: Long): Long = cov << 2 | mySide << 1 | nbrSide

  private def initiate(ctx: VertexContext, n: Node, tipLen: Int): Unit =
    if (n.typ == VType.One && n.seqLen <= tipLen)
      n.soleEdge.foreach(e => ctx.send(e.nbr, Request, n.seqLen.toLong, n.id))

  private def compute(k: Int, tipLen: Int)(
      ctx: VertexContext, id: Long, st0: TipState, msgs: Seq[Msg]): TipState = ctx.superstep match {
    case 0 =>
      val kind = if (Ids.isContig(id)) Contig else Kmer
      st0.node.edges.foreach(e => ctx.send(e.nbr, kind, id, packEdge(e.nbrSide, e.mySide, e.cov)))
      ctx.remainActive()
      st0
    case 1 =>
      val node = if (Ids.isContig(id)) st0.node else {
        val (kmers, contigs) = msgs.partition(_.kind == Kmer)
        val senders = kmers.map(_.a).toSet
        st0.node.copy(edges = st0.node.edges.filter(e => senders(e.nbr)) ++ contigs.map(m =>
          Edge(m.a, mySide = (m.b >> 1 & 1).toInt, nbrSide = (m.b & 1).toInt, cov = m.b >>> 2)))
      }
      initiate(ctx, node, tipLen)
      st0.copy(node = node)
    case _ =>
      var st = st0
      // the neighbour a <1-1> node passes a message on to
      def onward(from: Long): Long = st.node.edges.find(_.nbr != from).getOrElse(st.node.edges.head).nbr
      msgs.foreach { m =>
        if (!st.dead) {
          val from = if (m.kind == Delete) m.a else m.b
          (m.kind, st.node.typ) match {
            case (Delete, VType.One) =>
              st = st.copy(dead = true)
            case (Delete, VType.OneOne) =>
              ctx.send(onward(from), Delete, id, 0L)
              st = st.copy(dead = true)
            case (Delete, VType.MN) => // stray DELETE at an ambiguous vertex: drop it
            case (_, VType.OneOne) =>
              val cum = m.a + st.node.seqLen - (k - 1)
              if (cum <= tipLen) ctx.send(onward(from), Request, cum, id)
            case (_, VType.One) =>
              // a tip with two dead-ends: terminator is part of the tip
              if (m.a + st.node.seqLen - (k - 1) <= tipLen) {
                ctx.send(from, Delete, id, 0L)
                st = st.copy(dead = true)
              }
            case (_, VType.MN) =>
              if (m.a <= tipLen) {
                ctx.send(from, Delete, id, 0L)
                st = st.copy(node = st.node.copy(edges = st.node.edges.filterNot(_.nbr == from)))
                initiate(ctx, st.node, tipLen)
              }
          }
        }
      }
      st
  }

  final case class Result(nodes: RDD[(Long, Node)], stats: PregelStats)

  /** A generous linear bound, 4n + 16: a REQUEST or DELETE crosses one
    * vertex per superstep and every DELETE kills the vertices it crosses.
    * A phase (a REQUEST out and its DELETE back) takes at most
    * 2(tipLen − k + 2) supersteps, since a REQUEST starts at k or more and
    * grows by 1 or more per relay, but the number of phases is bounded only
    * by the number of ⟨m-n⟩ vertices, each of which can become ⟨1⟩ once; as
    * a function of n that bound is looser than this one.
    */
  private def bound(n: Long): Int = math.min(4 * n + 16, Int.MaxValue.toLong).toInt

  /** Run tip removing; returns the surviving graph (relinked ambiguous
    * k-mers with tips' edges removed, plus surviving contig nodes).
    */
  def run(ambNodes: RDD[(Long, Node)], contigs: RDD[(Long, Node)],
          k: Int, tipLen: Int): Result = {
    val init = ambNodes.union(contigs).mapValues(TipState(_, dead = false))
    val (state, stats) = PregelRuntime.run(init, compute(k, tipLen), "tip removing", bound)
    Result(state.filter(!_._2.dead).mapValues(_.node), stats)
  }
}
