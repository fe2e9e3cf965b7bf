package repro.core.nn

import repro.{SparkSpec, TaskResultBytes}
import repro.data.{NormalizedSynth, Store}

/** The NN counterpart of the paper's exactness claim: M-NN, S-NN and F-NN
  * perform identical parameter updates every epoch (the layer-1
  * decomposition and the grouped backward reduction are exact), for both
  * binary and multi-way joins, dense and one-hot-sparse features.
  */
class NnEquivalenceSpec extends SparkSpec {

  private val Tol = 1e-7

  private lazy val (sDf, rDf) =
    NormalizedSynth.binary(spark, nS = 2500, nR = 25, dS = 3, dR = 4, seed = 91,
      withTarget = true)

  test("S-NN and F-NN update identically per epoch (binary, sigmoid)") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(sDf, rDf)
    var mS = NnModel.init(nh = 6, d = 7, seed = 41)
    var mF = mS
    (1 to 3).foreach { ep =>
      val (nextS, lS) = DenormNn.epoch(t, mS, lr = 0.05)
      val (nextF, lF) = FNn.epoch(sDf, rRows, mF, lr = 0.05, dS = 3)
      assert(math.abs(lS - lF) < 1e-10, s"epoch $ep loss: $lS vs $lF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"epoch $ep params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("relu networks also train identically (factorization is activation-agnostic at layer 1)") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(sDf, rDf)
    val init = NnModel.init(nh = 5, d = 7, seed = 43, activation = Activation.Relu)
    val (nextS, lS) = DenormNn.epoch(t, init, lr = 0.05)
    val (nextF, lF) = FNn.epoch(sDf, rRows, init, lr = 0.05, dS = 3)
    assert(math.abs(lS - lF) < 1e-10)
    assert(nextS.maxAbsDiff(nextF) < Tol)
  }

  test("M-NN (materialized) equals S-NN and F-NN end to end") {
    val store = Store.temp(spark)
    try {
      val s = store.write("s", sDf)
      val r = store.write("r", rDf)
      val init = NnModel.init(nh = 6, d = 7, seed = 47)
      val fitM = MNn.train(store, s, r, init, epochs = 2, lr = 0.05)
      val fitS = SNn.train(s, r, init, epochs = 2, lr = 0.05)
      val fitF = FNn.train(s, r, init, epochs = 2, lr = 0.05)
      assert(fitM.model.maxAbsDiff(fitS.model) < Tol)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.losses.zip(fitF.losses).forall { case (a, b) => math.abs(a - b) < 1e-9 })
    } finally store.close()
  }

  test("loss decreases over training (F-NN learns)") {
    val init = NnModel.init(nh = 8, d = 7, seed = 53)
    val fit = FNn.train(sDf, rDf, init, epochs = 6, lr = 0.3)
    assert(fit.losses.last < fit.losses.head,
      s"loss did not improve: ${fit.losses.mkString(", ")}")
  }

  test("one-hot sparse features train identically (the paper's Sparse datasets)") {
    import spark.implicits._
    val (s, r) = NormalizedSynth.binary(spark, nS = 1500, nR = 20, dS = 12, dR = 14,
      seed = 97, withTarget = true, sparse = true)
    val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
    val t = DenormNn.joined(s, r)
    val init = NnModel.init(nh = 5, d = 26, seed = 59)
    val (nextS, lS) = DenormNn.epoch(t, init, lr = 0.05)
    val (nextF, lF) = FNn.epoch(s, rRows, init, lr = 0.05, dS = 12)
    assert(math.abs(lS - lF) < 1e-10)
    assert(nextS.maxAbsDiff(nextF) < Tol)
  }

  test("dangling FKs: M, S and F all drop the row (inner-join semantics)") {
    import org.apache.spark.sql.functions.{col, when}
    import spark.implicits._
    val store = Store.temp(spark)
    try {
      // a few S rows point past R's keys 1..25, a few below them
      val s = store.write("s", sDf.withColumn("fk",
        when(col("sid") % 40 === 0, col("fk") + 1000L)
          .when(col("sid") % 40 === 1, -col("fk")).otherwise(col("fk"))))
      val r = store.write("r", rDf)
      val t = DenormNn.joined(s, r)
      assert(t.count() < s.count(), "expected dangling S rows")
      val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
      val init = NnModel.init(nh = 6, d = 7, seed = 71)
      var mS = init
      var mF = init
      (1 to 2).foreach { ep =>
        val (nextS, lS) = DenormNn.epoch(t, mS, lr = 0.05)
        val (nextF, lF) = FNn.epoch(s, rRows, mF, lr = 0.05, dS = 3)
        assert(math.abs(lS - lF) < Tol, s"epoch $ep loss: $lS vs $lF")
        assert(nextS.maxAbsDiff(nextF) < Tol, s"epoch $ep params diverged")
        mS = nextS; mF = nextF
      }
      val fitM = MNn.train(store, s, r, init, epochs = 2, lr = 0.05)
      val fitF = FNn.train(s, r, init, epochs = 2, lr = 0.05)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitM.losses.zip(fitF.losses).forall { case (a, b) => math.abs(a - b) < Tol })
    } finally store.close()
  }

  test("F-NN is exact for any partitioning of S") {
    import spark.implicits._
    val rRows = rDf.select("rid", "xr").as[(Long, Array[Double])].collect()
    val init = NnModel.init(nh = 6, d = 7, seed = 73)
    val (mD, lD) = DenormNn.epoch(DenormNn.joined(sDf, rDf), init, lr = 0.05)
    val (m1, l1) = FNn.epoch(sDf.repartition(1), rRows, init, lr = 0.05, dS = 3)
    val (m8, l8) = FNn.epoch(sDf.repartition(8), rRows, init, lr = 0.05, dS = 3)
    assert(m1.maxAbsDiff(m8) < Tol)
    assert(m1.maxAbsDiff(mD) < Tol)
    assert(m8.maxAbsDiff(mD) < Tol)
    Seq(l1, l8).foreach(l => assert(math.abs(l - lD) < Tol))
  }

  test("F-NN's task results to the driver do not grow with nR") {
    import spark.implicits._
    def resultBytes(nR: Long): Long = {
      val (s, r) = NormalizedSynth.binary(spark, nS = 4000, nR = nR, dS = 3, dR = 4, seed = 83,
        withTarget = true)
      val rRows = r.select("rid", "xr").as[(Long, Array[Double])].collect()
      val init = NnModel.init(nh = 6, d = 7, seed = 79)
      TaskResultBytes.of(spark.sparkContext)(
        FNn.epoch(s.repartition(4), rRows, init, lr = 0.05, dS = 3))._2
    }
    val small = resultBytes(50)
    val large = resultBytes(5000)
    assert(large < 2 * small, s"result bytes: nR=50 -> $small, nR=5000 -> $large")
  }

  test("multi-way: S-NN and F-NN update identically per epoch (q=2)") {
    import spark.implicits._
    val (s, rs) = NormalizedSynth.multiway(spark, nS = 2000, dS = 2,
      specs = Seq((18L, 3), (12L, 4)), seed = 101, withTarget = true)
    val rRows = rs.map(_.select("rid", "xr").as[(Long, Array[Double])].collect())
    val t = SNn.joinedMulti(s, rs)
    var mS = NnModel.init(nh = 5, d = 9, seed = 61)
    var mF = mS
    (1 to 2).foreach { ep =>
      val (nextS, lS) = DenormNn.epoch(t, mS, lr = 0.05)
      val (nextF, lF) = FNnMulti.epoch(s, rRows, mF, lr = 0.05, dS = 2)
      assert(math.abs(lS - lF) < 1e-10, s"epoch $ep loss: $lS vs $lF")
      assert(nextS.maxAbsDiff(nextF) < Tol, s"epoch $ep params diverged")
      mS = nextS; mF = nextF
    }
  }

  test("multi-way trainers agree end to end (M vs S vs F, q=2)") {
    val store = Store.temp(spark)
    try {
      val (s0, rs0) = NormalizedSynth.multiway(spark, nS = 1200, dS = 2,
        specs = Seq((10L, 2), (8L, 3)), seed = 103, withTarget = true)
      val s = store.write("s", s0)
      val rs = rs0.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
      val init = NnModel.init(nh = 4, d = 7, seed = 67)
      val fitM = MNn.trainMulti(store, s, rs, init, epochs = 2, lr = 0.05)
      val fitS = SNn.trainMulti(s, rs, init, epochs = 2, lr = 0.05)
      val fitF = FNnMulti.train(s, rs, init, epochs = 2, lr = 0.05)
      assert(fitM.model.maxAbsDiff(fitF.model) < Tol)
      assert(fitS.model.maxAbsDiff(fitF.model) < Tol)
    } finally store.close()
  }
}
