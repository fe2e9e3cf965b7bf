package repro.core.gmm

import repro.{SparkSpec, TaskResultBytes}
import repro.data.{NormalizedSynth, Store}

/** The paper's central claim (§V-B end): M-GMM, S-GMM and F-GMM produce the
  * *same* model — the decomposition is exact. We train all three from the
  * same init on the same normalized pair and compare parameters after every
  * iteration, plus multi-way and qualitative-accuracy checks.
  */
class GmmEquivalenceSpec extends SparkSpec {

  private val Tol = 1e-7

  private lazy val (sDf, rDf) =
    NormalizedSynth.binary(spark, nS = 3000, nR = 30, dS = 3, dR = 4, seed = 77, k = 3)

  test("S-GMM and F-GMM produce identical models per iteration (binary)") {
    val init = GmmModel.init(k = 3, d = 7, seed = 5)
    var mS = init
    var mF = init
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormGmm.joined(sDf, rDf)
    (1 to 3).foreach { it =>
      val (nextS, llS) = DenormGmm.emStep(t, mS)
      val (nextF, llF) = FGmm.emStep(sDf, rRows, mF, dS = 3, dR = 4)
      assert(math.abs(llS - llF) / math.abs(llS) < Tol, s"iter $it loglik: $llS vs $llF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"iter $it params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("M-GMM (materialized) equals S-GMM and F-GMM end to end") {
    val store = Store.temp(spark)
    try {
      val init = GmmModel.init(k = 3, d = 7, seed = 6)
      val s = store.write("s", sDf)
      val r = store.write("r", rDf)
      val fitM = MGmm.train(store, s, r, init, iters = 2)
      val fitS = SGmm.train(s, r, init, iters = 2)
      val fitF = FGmm.train(s, r, init, iters = 2)
      assert(fitM.model.maxAbsDiff(fitS.model) < Tol)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.logliks.zip(fitF.logliks).forall { case (a, b) =>
        math.abs(a - b) / math.abs(a) < Tol })
    } finally store.close()
  }

  test("log-likelihood is non-decreasing across EM iterations (F-GMM)") {
    val init = GmmModel.init(k = 3, d = 7, seed = 8)
    val fit = FGmm.train(sDf, rDf, init, iters = 4)
    fit.logliks.sliding(2).foreach { case Seq(a, b) =>
      assert(b >= a - math.abs(a) * 1e-9, s"loglik decreased: $a -> $b")
    }
  }

  test("weights stay a simplex and covariances stay symmetric across training") {
    val init = GmmModel.init(k = 3, d = 7, seed = 9)
    val fit = FGmm.train(sDf, rDf, init, iters = 3)
    assert(math.abs(fit.model.weights.sum - 1.0) < 1e-9)
    assert(fit.model.weights.forall(w => w > 0 && w < 1))
    fit.model.covs.foreach { c =>
      assert(c.maxAbsDiff(c.transpose) < 1e-12)
    }
  }

  test("dangling FKs: M, S and F all drop the row (inner-join semantics)") {
    import org.apache.spark.sql.functions.{col, when}
    import spark.implicits._
    val store = Store.temp(spark)
    try {
      // a few S rows point past R's keys 1..30, a few below them
      val s = store.write("s", sDf.withColumn("fk",
        when(col("sid") % 40 === 0, col("fk") + 1000L)
          .when(col("sid") % 40 === 1, -col("fk")).otherwise(col("fk"))))
      val r = store.write("r", rDf)
      val t = DenormGmm.joined(s, r)
      assert(t.count() < s.count(), "expected dangling S rows")
      val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
      val init = GmmModel.init(k = 3, d = 7, seed = 13)
      var mS = init
      var mF = init
      (1 to 2).foreach { it =>
        val (nextS, llS) = DenormGmm.emStep(t, mS)
        val (nextF, llF) = FGmm.emStep(s, rRows, mF, dS = 3, dR = 4)
        assert(math.abs(llS - llF) / math.abs(llS) < Tol, s"iter $it loglik: $llS vs $llF")
        assert(nextS.maxAbsDiff(nextF) < Tol, s"iter $it params diverged")
        mS = nextS; mF = nextF
      }
      val fitM = MGmm.train(store, s, r, init, iters = 2)
      val fitF = FGmm.train(s, r, init, iters = 2)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.logliks.zip(fitF.logliks).forall { case (a, b) =>
        math.abs(a - b) / math.abs(a) < Tol })
    } finally store.close()
  }

  test("F-GMM is exact for any partitioning of S") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val init = GmmModel.init(k = 3, d = 7, seed = 14)
    val (mD, llD) = DenormGmm.emStep(DenormGmm.joined(sDf, rDf), init)
    val (m1, ll1) = FGmm.emStep(sDf.repartition(1), rRows, init, dS = 3, dR = 4)
    val (m8, ll8) = FGmm.emStep(sDf.repartition(8), rRows, init, dS = 3, dR = 4)
    assert(m1.maxAbsDiff(m8) < Tol)
    assert(m1.maxAbsDiff(mD) < Tol)
    assert(m8.maxAbsDiff(mD) < Tol)
    Seq(ll1, ll8).foreach(ll => assert(math.abs(ll - llD) / math.abs(llD) < Tol))
  }

  test("F-GMM's task results to the driver do not grow with nR") {
    import spark.implicits._
    def resultBytes(nR: Long): Long = {
      val (s, r) = NormalizedSynth.binary(spark, nS = 4000, nR = nR, dS = 3, dR = 4, seed = 79, k = 3)
      val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
      val init = GmmModel.init(k = 3, d = 7, seed = 15)
      TaskResultBytes.of(spark.sparkContext)(
        FGmm.emStep(s.repartition(4), rRows, init, dS = 3, dR = 4))._2
    }
    val small = resultBytes(50)
    val large = resultBytes(5000)
    assert(large < 2 * small, s"result bytes: nR=50 -> $small, nR=5000 -> $large")
  }

  test("multi-way: S-GMM and F-GMM produce identical models per iteration (q=2)") {
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 2500, dS = 2,
      specs = Seq((20L, 3), (15L, 4)), seed = 31, k = 3)
    val d = 2 + 3 + 4
    val init = GmmModel.init(k = 3, d = d, seed = 10)
    import spark.implicits._
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    var mS = init
    var mF = init
    val t = SGmm.joinedMulti(s, rs)
    (1 to 2).foreach { it =>
      val (nextS, llS) = DenormGmm.emStep(t, mS)
      val (nextF, llF) = FGmmMulti.emStep(s, rRows, mF, dS = 2)
      assert(math.abs(llS - llF) / math.abs(llS) < Tol, s"iter $it loglik: $llS vs $llF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"iter $it params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("multi-way trainers agree end to end (M vs F, q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1500, dS = 2,
        specs = Seq((12L, 2), (10L, 3)), seed = 33, k = 2)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
      val init = GmmModel.init(k = 2, d = 7, seed = 11)
      val fitM = MGmm.trainMulti(store, s, rs, init, iters = 2)
      val fitS = SGmm.trainMulti(s, rs, init, iters = 2)
      val fitF = FGmmMulti.train(s, rs, init, iters = 2)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitS.model.maxAbsDiff(fitF.model) < Tol)
    } finally store.close()
  }

  test("F-GMM separates well-separated 1-d clusters (no loss in accuracy)") {
    // Explicitly bimodal S feature (±4) so cluster recovery is well-posed;
    // after a few EM iterations the two means should be far apart.
    import org.apache.spark.sql.functions._
    val s = spark.range(1, 4001).select(
      col("id") as "sid",
      (rand(1) * 20 + 1).cast("long") as "fk",
      array(when(rand(2) < 0.5, -4.0).otherwise(4.0) + randn(3) * 0.5) as "xs")
    val r = spark.range(1, 21).select(col("id") as "rid", array(randn(4)) as "xr")
    val init = GmmModel.init(k = 2, d = 2, seed = 12)
    val fit = FGmm.train(s, r, init, iters = 8)
    val means0 = fit.model.means.map(_.head).sorted
    assert(means0.last - means0.head > 4.0,
      s"expected separated component means, got ${means0.mkString(",")}")
    // and the final model must still match the denormalized trainer exactly
    val fitS = SGmm.train(s, r, init, iters = 8)
    assert(fit.model.maxAbsDiff(fitS.model) < 1e-5)
  }
}
