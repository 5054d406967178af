package export

import (
	"encoding/json"
	"strconv"

	"csce/internal/obs"
)

// This file renders finished traces as OTLP/JSON using only encoding/json
// — no generated protobuf code: 32-hex trace IDs (our 16-hex IDs
// left-padded with zeros), 16-hex span IDs, parent links, absolute
// wall-clock windows derived from the trace start plus each span's
// offsets, and the span attributes as typed key/values.

// --- OTLP/JSON (OTLP/HTTP with JSON payload, /v1/traces) ---
//
// The shapes below follow the proto3 JSON mapping of
// opentelemetry.proto.collector.trace.v1.ExportTraceServiceRequest:
// lowerCamelCase field names, 64-bit integers as decimal strings, byte
// IDs as hex strings.

type otlpExportRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string         `json:"traceId"`
	SpanID       string         `json:"spanId"`
	ParentSpanID string         `json:"parentSpanId,omitempty"`
	Name         string         `json:"name"`
	Kind         int            `json:"kind"`
	StartNano    string         `json:"startTimeUnixNano"`
	EndNano      string         `json:"endTimeUnixNano"`
	Attributes   []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}

// otlpAnyValue is the oneof: exactly one pointer is set.
type otlpAnyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"` // int64 as decimal string per proto3 JSON
}

const (
	otlpKindInternal = 1 // SPAN_KIND_INTERNAL
	otlpKindServer   = 2 // SPAN_KIND_SERVER
)

// otlpTraceID left-pads the 16-hex trace ID to OTLP's 32 hex chars.
func otlpTraceID(id obs.TraceID) string {
	return "0000000000000000" + string(id)
}

func otlpAttr(a obs.Attr) otlpKeyValue {
	if a.IsNum {
		v := strconv.FormatInt(a.Num, 10)
		return otlpKeyValue{Key: a.Key, Value: otlpAnyValue{IntValue: &v}}
	}
	s := a.Str
	return otlpKeyValue{Key: a.Key, Value: otlpAnyValue{StringValue: &s}}
}

// encodeOTLP renders a batch as one ExportTraceServiceRequest: a single
// resource (this daemon) and scope, every trace's spans concatenated.
func encodeOTLP(batch []obs.FinishedTrace, service string) ([]byte, error) {
	var spans []otlpSpan
	for _, ft := range batch {
		tid := otlpTraceID(ft.ID)
		for _, sp := range ft.Spans {
			o := otlpSpan{
				TraceID:   tid,
				SpanID:    sp.ID.Hex(),
				Name:      sp.Name,
				Kind:      otlpKindInternal,
				StartNano: strconv.FormatInt(ft.Begin.Add(sp.Start).UnixNano(), 10),
				EndNano:   strconv.FormatInt(ft.Begin.Add(sp.End).UnixNano(), 10),
			}
			if sp.ID == ft.Root {
				o.Kind = otlpKindServer // the root is the served request
			} else if sp.Parent != 0 {
				o.ParentSpanID = sp.Parent.Hex()
			}
			if len(sp.Attrs) > 0 {
				o.Attributes = make([]otlpKeyValue, 0, len(sp.Attrs))
				for _, a := range sp.Attrs {
					o.Attributes = append(o.Attributes, otlpAttr(a))
				}
			}
			spans = append(spans, o)
		}
	}
	svc := service
	req := otlpExportRequest{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			{Key: "service.name", Value: otlpAnyValue{StringValue: &svc}},
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "csce/internal/obs"},
			Spans: spans,
		}},
	}}}
	return json.Marshal(req)
}
