package modelzoo

import "xsp/internal/framework"

// postprocessHead appends the proposal/NMS plumbing of the TF detection
// graphs: long chains of dynamic-shape Where ops interleaved with
// reshapes and concats. The paper finds this — not convolution — dominates
// most object-detection models (Table VIII: conv percentages of 0.6-14.9%
// with Where the dominating layer type). whereCount is calibrated per
// model to the published online latency.
func postprocessHead(b *builder, whereCount int) {
	small := framework.Shape{N: b.shape().N, C: 4, H: 100, W: 1}
	b.reshape(small)
	for i := 0; i < whereCount; i++ {
		b.where()
		if i%10 == 9 {
			b.concat(2, small.C)
		}
	}
	b.reshape(framework.Shape{N: small.N, C: 4, H: 100, W: 1})
}

// boxPredictors appends the per-feature-map box/class convolution heads of
// an SSD detector.
func boxPredictors(b *builder, n int) {
	for i := 0; i < n; i++ {
		in := b.shape()
		b.conv(24, 3, 1, 1) // box regression
		b.setShape(in)
		b.conv(546, 3, 1, 1) // class logits (91 classes x 6 anchors)
		b.setShape(in)
	}
}

// buildSSDMobileNetV1 is MLPerf_SSD_MobileNet_v1_300x300 (paper ID 44) and
// the plain SSD_MobileNet_v1 variants.
func buildSSDMobileNetV1(name string, batch, whereCount int) *framework.Graph {
	b := newBuilder(name, batch, 3, 300)
	buildMobileNetV1Backbone(b, 1.0)
	// SSD extra feature layers.
	for _, c := range []int{512, 256, 256, 128} {
		b.convBNRelu(c/2, 1, 1, 0)
		b.convBNRelu(c, 3, 2, 1)
	}
	boxPredictors(b, 6)
	postprocessHead(b, whereCount)
	return b.build()
}

// buildSSDMobileNetV1FPN adds the feature-pyramid convolutions and a
// larger 640x640 input (paper ID 40, conv share 4.8%).
func buildSSDMobileNetV1FPN(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 640)
	buildMobileNetV1Backbone(b, 1.0)
	for i := 0; i < 4; i++ { // FPN lateral + output convs
		b.convBNRelu(256, 1, 1, 0)
		b.convBNRelu(256, 3, 1, 1)
	}
	boxPredictors(b, 5)
	postprocessHead(b, 130)
	return b.build()
}

// buildSSDMobileNetV1PPN is the pooled-pyramid variant (paper ID 47, the
// smallest conv share of the suite: 0.6%).
func buildSSDMobileNetV1PPN(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 300)
	buildMobileNetV1Backbone(b, 1.0)
	b.convBNRelu(512, 1, 1, 0) // shared box predictor stem
	boxPredictors(b, 2)
	postprocessHead(b, 140)
	return b.build()
}

// buildSSDMobileNetV2 uses the MobileNet v2 backbone (paper ID 45).
func buildSSDMobileNetV2(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 300)
	buildMobileNetV2Backbone(b, 1.0)
	for _, c := range []int{512, 256, 256, 128} {
		b.convBNRelu(c/2, 1, 1, 0)
		b.convBNRelu(c, 3, 2, 1)
	}
	boxPredictors(b, 6)
	postprocessHead(b, 140)
	return b.build()
}

// buildSSDInceptionV2 uses the Inception v2 backbone (paper ID 43).
func buildSSDInceptionV2(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 300)
	b.convBNRelu(64, 7, 2, 3)
	b.maxpool(3, 2)
	b.convBNRelu(64, 1, 1, 0)
	b.convBNRelu(192, 3, 1, 1)
	b.maxpool(3, 2)
	for i, m := range googLeNetTable {
		if i == 2 || i == 7 {
			b.maxpool(3, 2)
		}
		inceptionV1Module(b, m[0], m[1], m[2], m[3], m[4], m[5], true)
	}
	for _, c := range []int{512, 256, 256, 128} {
		b.convBNRelu(c/2, 1, 1, 0)
		b.convBNRelu(c, 3, 2, 1)
	}
	boxPredictors(b, 6)
	postprocessHead(b, 140)
	return b.build()
}

// buildSSDResNet34 is MLPerf_SSD_ResNet34_1200x1200 (paper ID 46): the
// big-input MLPerf detector, the one OD model with a double-digit conv
// share (14.9%) and optimal batch 1.
func buildSSDResNet34(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 1200)
	buildResNet34Backbone(b)
	for _, c := range []int{512, 512, 256, 256} {
		b.convBNRelu(c/2, 1, 1, 0)
		b.convBNRelu(c, 3, 2, 1)
	}
	boxPredictors(b, 6)
	postprocessHead(b, 215)
	return b.build()
}

// fasterRCNNHead appends the second-stage box head: RPN convolutions plus
// per-proposal dense compute (the 300 region crops re-enter a conv stack;
// modelled as wide convolutions carrying the equivalent flops).
func fasterRCNNHead(b *builder, headConvs, headCh, headHW, whereCount int) {
	b.convBNRelu(512, 3, 1, 1) // RPN
	b.conv(24, 1, 1, 0)        // RPN box deltas
	b.reshape(framework.Shape{N: b.shape().N, C: headCh, H: headHW, W: headHW})
	for i := 0; i < headConvs; i++ {
		b.convBNRelu(headCh, 3, 1, 1)
	}
	postprocessHead(b, whereCount)
}

// buildFasterRCNNResNet constructs Faster-RCNN with a ResNet backbone at
// 600x600 (paper IDs 39 and 41).
func buildFasterRCNNResNet(name string, depth, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 600)
	buildResNetBackbone(b, depth, 1)
	fasterRCNNHead(b, 4, 256, 32, 215)
	return b.build()
}

// buildFasterRCNNInceptionV2 (paper ID 42).
func buildFasterRCNNInceptionV2(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 600)
	b.convBNRelu(64, 7, 2, 3)
	b.maxpool(3, 2)
	b.convBNRelu(64, 1, 1, 0)
	b.convBNRelu(192, 3, 1, 1)
	b.maxpool(3, 2)
	for i, m := range googLeNetTable {
		if i == 2 || i == 7 {
			b.maxpool(3, 2)
		}
		inceptionV1Module(b, m[0], m[1], m[2], m[3], m[4], m[5], true)
	}
	fasterRCNNHead(b, 2, 256, 24, 165)
	return b.build()
}

// buildFasterRCNNNAS (paper ID 38): the NASNet-A backbone at 1200x1200
// plus the per-proposal NAS cell stack. Its 5-second online latency and
// 85% conv share come almost entirely from convolution; the proposal
// stage's 300 region crops are folded into wide high-flop convolutions.
func buildFasterRCNNNAS(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 1200)
	// NASNet-A reduced stem + cell stack (separable convolutions).
	b.convBNRelu(96, 3, 2, 0)
	for _, c := range []int{168, 336, 672} {
		for cell := 0; cell < 6; cell++ {
			in := b.shape()
			stride := 1
			if cell == 0 {
				stride = 2
			}
			b.depthwise(5, stride, 2)
			b.bn()
			b.relu()
			b.conv(c, 1, 1, 0)
			b.bn()
			b.relu()
			b.depthwise(3, 1, 1)
			b.bn()
			b.conv(c, 1, 1, 0)
			b.bn()
			mainOut := b.shape()
			if in.C != c || stride != 1 {
				b.setShape(in)
				b.conv(c, 1, stride, 0)
			}
			b.setShape(mainOut)
			b.addN(2)
			b.relu()
		}
	}
	// Proposal stage: 300 crops through the NAS head, folded into four
	// wide 3x3 convolutions (~11.5 Tflop at batch 1, which at the
	// simulator's batch-1 conv efficiency reproduces the paper's
	// ~5-second online latency).
	b.reshape(framework.Shape{N: b.shape().N, C: 2500, H: 160, W: 160})
	for i := 0; i < 4; i++ {
		b.convBNRelu(2500, 3, 1, 1)
	}
	postprocessHead(b, 300)
	return b.build()
}

// maskRCNNHead appends the mask branch on top of a Faster-RCNN head.
func maskRCNNHead(b *builder, headConvs, headCh, headHW, whereCount int) {
	fasterRCNNHead(b, headConvs, headCh, headHW, whereCount)
	b.reshape(framework.Shape{N: b.shape().N, C: 256, H: 56, W: 56})
	for i := 0; i < 4; i++ {
		b.convBNRelu(256, 3, 1, 1)
	}
	b.conv(91, 1, 1, 0) // per-class masks
	b.sigmoid()
}

// buildMaskRCNNResNetV2 (paper IDs 49, 50) at 1024x1024.
func buildMaskRCNNResNetV2(name string, depth, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 1024)
	buildResNetBackbone(b, depth, 2)
	maskRCNNHead(b, 6, 512, 32, 330)
	return b.build()
}

// buildMaskRCNNInceptionResNetV2 (paper ID 48): the heaviest
// instance-segmentation model, 382ms online.
func buildMaskRCNNInceptionResNetV2(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 1024)
	// Inception-ResNet v2 trunk at detection resolution: reuse the
	// classification trunk layers by building at the larger input.
	b.convBNRelu(32, 3, 2, 0)
	b.convBNRelu(32, 3, 1, 0)
	b.convBNRelu(64, 3, 1, 1)
	b.maxpool(3, 2)
	b.convBNRelu(80, 1, 1, 0)
	b.convBNRelu(192, 3, 1, 0)
	b.maxpool(3, 2)
	b.convBNRelu(320, 1, 1, 0)
	for i := 0; i < 10; i++ {
		in := b.shape()
		b.convBNRelu(32, 1, 1, 0)
		b.convBNRelu(48, 3, 1, 1)
		b.convBNRelu(64, 3, 1, 1)
		b.setShape(in)
		b.concat(2, in.C)
		b.addN(2)
		b.relu()
	}
	in := b.shape()
	b.convBNRelu(384, 3, 2, 0)
	b.setShape(in)
	b.maxpool(3, 2)
	b.concat(2, 1088)
	for i := 0; i < 20; i++ {
		in := b.shape()
		b.convBNRelu(128, 1, 1, 0)
		b.conv1x7BNRelu(160)
		b.conv7x1BNRelu(192)
		b.setShape(in)
		b.concat(2, in.C)
		b.addN(2)
		b.relu()
	}
	maskRCNNHead(b, 8, 512, 32, 700)
	return b.build()
}

// buildMaskRCNNInceptionV2 (paper ID 51).
func buildMaskRCNNInceptionV2(name string, batch int) *framework.Graph {
	b := newBuilder(name, batch, 3, 800)
	b.convBNRelu(64, 7, 2, 3)
	b.maxpool(3, 2)
	b.convBNRelu(64, 1, 1, 0)
	b.convBNRelu(192, 3, 1, 1)
	b.maxpool(3, 2)
	for i, m := range googLeNetTable {
		if i == 2 || i == 7 {
			b.maxpool(3, 2)
		}
		inceptionV1Module(b, m[0], m[1], m[2], m[3], m[4], m[5], true)
	}
	maskRCNNHead(b, 2, 256, 24, 235)
	return b.build()
}
