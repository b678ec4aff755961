package repro.core

import org.apache.spark.rdd.RDD
import repro.pregel.{Msg, PregelRuntime, PregelStats, VertexContext}

/** Operation ⑤ — tip removing (paper §IV-B).
  *
  * Input: the ambiguous k-mers plus the merged (and bubble-filtered)
  * contigs. First the ambiguous k-mers are relinked: every contig pushes
  * (ID, length, far-end vertex, coverage) to its two end neighbours
  * (2 supersteps), and each ambiguous k-mer rebuilds its adjacency from
  * kept ambiguous-ambiguous edges plus the received contig edges — edges
  * to dropped/pruned contigs disappear, which may already change a vertex's
  * type.
  *
  * Then the REQUEST/DELETE protocol runs on the Pregel runtime: each
  * ⟨1⟩-typed node starts a REQUEST carrying its own sequence length;
  * ⟨1-1⟩ nodes relay it adding their length minus the (k-1) overlap; the
  * message terminates at an ⟨m-n⟩ or ⟨1⟩ node, which sends a DELETE back
  * along the dangling path if the cumulative length is within the
  * tip-length threshold. Deletions are relayed hop-by-hop (meeting DELETEs
  * are idempotent); an ⟨m-n⟩ terminator drops its edge to the tip and, if
  * it thereby becomes ⟨1⟩-typed, immediately initiates a REQUEST of its
  * own — the paper's multi-phase behaviour, message-driven.
  */
object TipRemoving {

  final case class TipState(node: Node, dead: Boolean, requested: Boolean)
      extends Serializable

  /** Relink ambiguous k-mers to the surviving contigs (the 2-superstep
    * contig-info push of the paper, realised as a cogroup).
    */
  def relink(ambNodes: RDD[(Long, Node)], contigs: RDD[(Long, Node)]): RDD[(Long, Node)] = {
    val ambSet = ambNodes.mapValues(_ => ()).cache()
    // Edges between two ambiguous k-mers survive as-is.
    val keptEdges = ambNodes
      .flatMap { case (id, n) => n.edges.map(e => (e.nbr, (id, e))) }
      .join(ambSet)
      .map { case (_, ((id, e), _)) => (id, e) }
    // Contig end edges become edges of the ambiguous endpoint vertices.
    val contigEdges = contigs.flatMap { case (cid, c) =>
      c.edges.map { e =>
        (e.nbr, Edge(nbr = cid, mySide = e.nbrSide, nbrSide = e.mySide, cov = e.cov))
      }
    }
    val newAdj = keptEdges.union(contigEdges)
    ambNodes.cogroup(newAdj).map { case (id, (ns, es)) =>
      val n = ns.head
      (id, n.copy(edges = es.toVector))
    }
  }

  /** DELETE (a = sender) sorts before REQUEST (a = cumulative length,
    * b = sender): a node killed this superstep ignores concurrent REQUESTs,
    * and an ⟨m-n⟩ node takes its shortest pending tip first.
    */
  private val Delete  = 0
  private val Request = 1

  private def initiate(ctx: VertexContext, st: TipState): TipState = {
    val n = st.node
    n.soleEdge match {
      case Some(e) if n.typ == VType.One && !st.requested =>
        ctx.send(e.nbr, Request, n.seqLen.toLong, n.id)
        st.copy(requested = true)
      case _ => st
    }
  }

  private def compute(k: Int, tipLen: Int)(
      ctx: VertexContext, id: Long, st0: TipState, msgs: Seq[Msg]): TipState = {
    var st = st0
    if (st.dead) return st
    if (ctx.superstep == 0) return initiate(ctx, st)

    msgs.foreach { m =>
      if (!st.dead) {
        val from = if (m.kind == Delete) m.a else m.b
        (m.kind, st.node.typ) match {
          case (Delete, VType.One) =>
            st = st.copy(dead = true)
          case (Delete, VType.OneOne) =>
            st.node.edges.find(_.nbr != from)
              .orElse(st.node.edges.headOption)
              .foreach(e => ctx.send(e.nbr, Delete, id, 0L))
            st = st.copy(dead = true)
          case (Delete, VType.MN) => // stray DELETE at an ambiguous vertex: drop it
          case (_, VType.OneOne) =>
            val other = st.node.edges.find(_.nbr != from).getOrElse(st.node.edges.head)
            ctx.send(other.nbr, Request, m.a + st.node.seqLen - (k - 1), id)
          case (_, VType.One) =>
            // a tip with two dead-ends: terminator is part of the tip
            if (m.a + st.node.seqLen - (k - 1) <= tipLen) {
              ctx.send(from, Delete, id, 0L)
              st = st.copy(dead = true)
            }
          case (_, VType.MN) =>
            if (m.a <= tipLen) {
              ctx.send(from, Delete, id, 0L)
              val node2 = st.node.copy(edges = st.node.edges.filterNot(_.nbr == from))
              st = st.copy(node = node2)
              if (node2.typ == VType.One && !st.requested) st = initiate(ctx, st)
            }
        }
      }
    }
    st
  }

  final case class Result(nodes: RDD[(Long, Node)], stats: PregelStats)

  /** A generous linear bound, 4n + 16: a REQUEST or DELETE crosses one
    * vertex per superstep and every DELETE kills the vertices it crosses.
    * A bound per phase waits on dropping REQUESTs that can no longer end
    * in a DELETE.
    */
  private def bound(n: Long): Int = math.min(4 * n + 16, Int.MaxValue.toLong).toInt

  /** Run tip removing; returns the surviving graph (relinked ambiguous
    * k-mers with tips' edges removed, plus surviving contig nodes).
    */
  def run(ambNodes: RDD[(Long, Node)], contigs: RDD[(Long, Node)],
          k: Int, tipLen: Int): Result = {
    val graph = relink(ambNodes, contigs).union(contigs)
    val init  = graph.mapValues(n => TipState(n, dead = false, requested = false))
    val (state, stats) = PregelRuntime.run(init, compute(k, tipLen), "tip removing", bound)
    Result(state.filter(!_._2.dead).mapValues(_.node), stats)
  }
}
